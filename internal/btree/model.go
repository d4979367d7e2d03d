package btree

import (
	"bytes"
	"math"

	"oldelephant/internal/storage"
)

// A bulk-loaded tree is a static sorted run of leaves on contiguous pages, so
// the leaf a descent would reach can be computed instead of read from the
// root, as interpolation search over B-trees (Graefe, DaMoN 2006) and learned
// indexes (Kraska et al., SIGMOD 2018) do: BulkLoad fits a line from the
// leading key column's value to the leaf's position and records how far the
// line may err, and a bounded start then reads the leftmost leaf of that
// error window and walks forward along leaf links. The model is a few numbers
// beside first and fence, kept only while nothing has moved a separator:
// every split and every successful Delete drops it, and the next BulkLoad
// fits a new one.

// KeyNumber maps a stored key to the number its leading column holds. It must
// not decrease as keys increase (bytes.Compare), and reports false for a key
// that has none (a NULL, a string column): such a seek descends.
type KeyNumber func(key []byte) (float64, bool)

// MaxWindow is the most leaves a predicted seek may walk past before it is in
// the leaf a descent would have begun in. A fit that could err by more keeps
// no model; its seeks descend.
const MaxWindow = 16

// Model predicts the leaf that holds a key. Leaf i of the run is page
// first+i. For a key whose number is x, the walk begins at leaf
// floor(Intercept + Slope·x) − Offset, clamped to the run, which is never past
// the leaf a descent reaches, and passes at most Window leaves to the first
// leaf holding a key >= the start (BulkLoad computes Offset and Window over
// every separator). Hops is the mean of the leaves walked past, which is what
// the planner charges a predicted start in sequential reads.
type Model struct {
	Leaves           int
	Intercept, Slope float64
	Offset, Window   int
	Hops             float64
}

// Valid reports whether m could have been fitted: a run of at least two
// leaves, a finite non-decreasing line, a window within MaxWindow. A restored
// catalog refuses any other.
func (m *Model) Valid() bool {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	return m.Leaves >= 2 && finite(m.Intercept) && finite(m.Slope) && m.Slope >= 0 &&
		m.Window >= 0 && m.Window <= MaxWindow && finite(m.Hops) && m.Hops >= 0 && m.Hops <= MaxWindow &&
		m.Offset > -1<<40 && m.Offset < 1<<40
}

// line is the leaf the fitted line puts x in, before the offset: the one
// computation BulkLoad's fit and every seek share, so the error bounds the fit
// measured hold exactly. The conversion keeps the product from fusing with
// the sum, so every build computes the same leaf.
func (m *Model) line(x float64) float64 {
	return math.Floor(m.Intercept + float64(m.Slope*x))
}

// leaf is the leaf a walk for a key numbered x begins in, false when the
// line gives no number (an infinite x times a zero slope).
func (m *Model) leaf(x float64) (int, bool) {
	p := m.line(x)
	if math.IsNaN(p) {
		return 0, false
	}
	return int(min(max(p-float64(m.Offset), 0), float64(m.Leaves-1))), true
}

// fitModel fits the model of a bulk-loaded run of leaves (leafIDs, with the
// first keys firstKeys) and reports whether the tree keeps it: its leaves lie
// on contiguous pages, every separator has a number, and the window is at
// most MaxWindow. The line is the least-squares fit of leaf position against
// the separators' numbers. Leaf i >= 1 is where a descent ends for every key
// in (sep_i, sep_i+1] (routing is strict, see leafFor), so the offset is
// the most the line puts any sep_i+1 past leaf i, and the window the most
// leaves from a start on sep_i to leaf i, plus the one leaf more a key beyond
// the descent's leaf's last key walks to.
func fitModel(num KeyNumber, leafIDs []storage.PageID, firstKeys [][]byte) *Model {
	L := len(leafIDs)
	if num == nil || L < 2 {
		return nil
	}
	xs := make([]float64, L) // xs[0] is unused: the leftmost leaf has no separator
	var meanX float64
	for i := 1; i < L; i++ {
		if leafIDs[i] != leafIDs[0]+storage.PageID(i) {
			return nil
		}
		x, ok := num(firstKeys[i])
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		xs[i] = x
		meanX += x
	}
	n := float64(L - 1)
	meanX /= n
	meanI := float64(L) / 2 // the mean of 1 .. L-1
	var sxy, sxx float64
	for i := 1; i < L; i++ {
		dx := xs[i] - meanX
		sxy += dx * (float64(i) - meanI)
		sxx += dx * dx
	}
	m := &Model{Leaves: L, Intercept: meanI}
	if sxx > 0 && sxy > 0 {
		m.Slope = sxy / sxx
		m.Intercept = meanI - m.Slope*meanX
	}
	// The offset keeps every start at or before its descent's leaf.
	off := math.Inf(-1)
	for i := 1; i < L; i++ {
		off = max(off, m.line(xs[i])-float64(i-1))
	}
	if math.IsNaN(off) || math.Abs(off) >= 1<<40 {
		return nil
	}
	m.Offset = int(off)
	var hops float64
	for i := 1; i < L; i++ {
		lo, _ := m.leaf(xs[i]) // the earliest start of a key that descends to leaf i
		hi := i                // a key at the next separator
		if i+1 < L {
			hi, _ = m.leaf(xs[i+1])
		}
		m.Window = max(m.Window, i-lo+1)
		hops += float64(i-lo+i-hi) / 2
	}
	m.Hops = hops / float64(L) // leaf 0's keys start in leaf 0
	if !m.Valid() {
		return nil
	}
	return m
}

// Start says how an iterator was positioned on its range: by a descent from
// the root, or at the leaf the tree's model predicts, walking Hops leaves on
// from there. Neither is set for a range begun at the leftmost leaf or in the
// leaf where the previous range stopped (Iterator.Reseek).
type Start struct {
	Descended, Predicted bool
	Hops                 int
}

// SetKeyNumber names the number a key's leading column holds (nil for none);
// BulkLoad fits a model only to a tree that has one, and seeks use it to
// read the model. The catalog sets it once, on a new or a restored tree.
func (t *BTree) SetKeyNumber(num KeyNumber) { t.num = num }

// Model returns the tree's leaf model, nil when it has none.
func (t *BTree) Model() *Model { return t.model }

// StartReads is a bounded start's cold page reads before the first leaf of
// its range: height random reads down from the root, or, on a tree with a
// model, one random read of the predicted leaf and, in sequence, the mean
// leaves walked past.
func (t *BTree) StartReads() (rand, seq float64) {
	if t.model != nil {
		return 1, t.model.Hops
	}
	return float64(t.height), 0
}

// LeafSpan bounds from above, reading no page, how many leaves
// LeafRange(start, stop, …) returns on a tree with a leaf model: from the
// leaf the model starts a walk for start in, which is never past the leaf a
// descent reaches, to Window−1 leaves past the one it starts stop's in, past
// which no separator lies at or below stop. It reports false on a tree with
// no model and for a bound with no number. nil bounds are open.
func (t *BTree) LeafSpan(start, stop []byte) (int, bool) {
	if t.model == nil {
		return 0, false
	}
	lo, hi := 0, t.model.Leaves-1
	ok := true
	if start != nil {
		lo, ok = t.leafOf(start)
	}
	if stop != nil && ok {
		hi, ok = t.leafOf(stop)
		hi = min(hi+t.model.Window-1, t.model.Leaves-1)
	}
	return max(hi-lo+1, 1), ok
}

// leafOf is the leaf the model starts a walk for key in, false when the tree
// has no model or key no number.
func (t *BTree) leafOf(key []byte) (int, bool) {
	if t.model == nil || t.num == nil {
		return 0, false
	}
	x, ok := t.num(key)
	if !ok {
		return 0, false
	}
	return t.model.leaf(x)
}

// predicted returns the page of the leaf the model starts a walk for key in.
func (t *BTree) predicted(key []byte) (storage.PageID, bool) {
	i, ok := t.leafOf(key)
	return t.first + storage.PageID(i), ok
}

// walk loads leaf id and the leaves after it until one holds a key >= key, or
// the chain ends, and returns that leaf loaded: where a descent's seek is
// once it has stepped past a leaf of smaller keys.
func (t *BTree) walk(id storage.PageID, key []byte) (node, Start, error) {
	st := Start{Predicted: true}
	for {
		nd, err := t.node(id)
		if err != nil || nd.next() == storage.InvalidPageID || nd.n > 0 && bytes.Compare(nd.key(nd.n-1), key) >= 0 {
			return nd, st, err
		}
		id = nd.next()
		st.Hops++
	}
}
