package catalog

// Sketch is the distinct-value sketch, exported for the external tests.
type Sketch = distinctSketch

// Add folds the hash of a value into the sketch.
func (d *distinctSketch) Add(h uint64) { d.add(h) }

// Count is the sketch's distinct count.
func (d *distinctSketch) Count() int64 { return d.count() }

// Registers are the HyperLogLog registers, nil while the count is exact.
func (d *distinctSketch) Registers() []uint8 { return d.regs }

// SketchBytes is the memory the distinct sketches of the table's columns
// hold: their exact sets and their registers.
func (s *TableStats) SketchBytes() int {
	n := 0
	for _, cs := range s.columns {
		n += 8*len(cs.distinct.exact) + len(cs.distinct.regs)
	}
	return n
}
