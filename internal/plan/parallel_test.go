package plan

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// newParallelCatalog builds a clustered table large enough to clear the
// parallelization threshold (ParallelRowThreshold rows spread over many leaf
// pages), plus a small and a large dimension table for join rewrites.
func newParallelCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	loadWideTable(t, c, "big", 3*ParallelRowThreshold)
	dims, err := c.CreateTable("dims", []catalog.Column{
		{Name: "dkey", Kind: value.KindInt},
		{Name: "dname", Kind: value.KindInt},
	}, []string{"dkey"})
	if err != nil {
		t.Fatal(err)
	}
	var dimRows [][]value.Value
	for i := 0; i < 40; i++ {
		dimRows = append(dimRows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 5))})
	}
	if err := dims.BulkLoad(dimRows); err != nil {
		t.Fatal(err)
	}
	bigdims, err := c.CreateTable("bigdims", []catalog.Column{
		{Name: "bkey", Kind: value.KindInt},
		{Name: "bname", Kind: value.KindInt},
	}, []string{"bkey"})
	if err != nil {
		t.Fatal(err)
	}
	var bigDimRows [][]value.Value
	for i := 0; i < 2*ParallelRowThreshold; i++ {
		bigDimRows = append(bigDimRows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 11))})
	}
	if err := bigdims.BulkLoad(bigDimRows); err != nil {
		t.Fatal(err)
	}
	return c
}

// loadWideTable creates name(id, grp, amount), clustered on id, with n rows:
// grp cycles through 40 values and amount through 1,000.
func loadWideTable(t *testing.T, c *catalog.Catalog, name string, n int) {
	t.Helper()
	tbl, err := c.CreateTable(name, []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "grp", Kind: value.KindInt},
		{Name: "amount", Kind: value.KindFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 40)),
			value.NewFloat(float64(i % 1000)),
		})
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
}

// TestParallelizePlacesParallelOperators pins where the rewrite fires: a
// scan-filter-aggregate pipeline becomes a parallel aggregate, a bare
// scan-filter pipeline a ParallelMerge, ORDER BY a ParallelSort under the
// serial Limit, and a sub-threshold table stays serial. Without this pin a
// regression could silently turn every "parallel" differential run back into
// serial-vs-serial.
func TestParallelizePlacesParallelOperators(t *testing.T) {
	c := newParallelCatalog(t)
	cases := []struct {
		query string
		want  string // type of the operator found at/under the rewritten root
	}{
		{"SELECT grp, COUNT(*), SUM(amount) FROM big WHERE amount > 10 GROUP BY grp", "*exec.ParallelHashAggregate"},
		{"SELECT id, amount FROM big WHERE amount > 990", "*exec.ParallelMerge"},
		{"SELECT id, amount FROM big WHERE amount > 990 ORDER BY amount DESC LIMIT 5", "*exec.ParallelSort"},
		{"SELECT id, grp FROM big", "*exec.ParallelMerge"},
	}
	for _, tc := range cases {
		pl := planFor(t, c, tc.query)
		root, rewrote := Parallelize(pl.Root, 4)
		if !rewrote {
			t.Errorf("%s: Parallelize reported no rewrite", tc.query)
		}
		if got := findOperatorType(root, tc.want); !got {
			t.Errorf("%s:\nrewritten plan has no %s (root %T)", tc.query, tc.want, root)
		}
	}

	// Parallelism 1 must return the identical tree, untouched.
	pl := planFor(t, c, cases[0].query)
	if got, rewrote := Parallelize(pl.Root, 1); got != pl.Root || rewrote {
		t.Errorf("Parallelize(root, 1) rebuilt the tree")
	}

	// A streaming aggregate over the clustered order parallelizes with seam
	// merging.
	pl = planFor(t, c, "SELECT id, MAX(amount) FROM big GROUP BY id")
	if _, ok := pl.Root.(*exec.Project); !ok {
		t.Fatalf("expected Project root, got %T", pl.Root)
	}
	root, _ := Parallelize(pl.Root, 4)
	if !findOperatorType(root, "*exec.ParallelStreamAggregate") {
		t.Errorf("stream aggregation did not parallelize: %s", pl.Explain)
	}
}

// TestParallelizeThroughJoins pins the join rewrite: a vectorized hash join
// is not a pipeline breaker — the probe-side pipeline parallelizes through it
// against the shared build table — and a partitionable build side is
// configured for morsel-parallel hashing.
func TestParallelizeThroughJoins(t *testing.T) {
	c := newParallelCatalog(t)
	cases := []struct {
		query string
		want  string
	}{
		// Join absorbed into a parallel aggregate pipeline.
		{"SELECT dname, COUNT(*), SUM(amount) FROM big, dims WHERE grp = dkey GROUP BY dname", "*exec.ParallelHashAggregate"},
		// Join under a bare filter pipeline.
		{"SELECT id, dname FROM big, dims WHERE grp = dkey AND amount > 990", "*exec.ParallelMerge"},
		// Join under ORDER BY/LIMIT.
		{"SELECT id, amount, dname FROM big, dims WHERE grp = dkey ORDER BY amount DESC, id LIMIT 7", "*exec.ParallelSort"},
	}
	for _, tc := range cases {
		pl := planFor(t, c, tc.query)
		if !findOperatorType(pl.Root, "*exec.VectorizedHashJoin") {
			t.Fatalf("%s: plan has no VectorizedHashJoin: %s", tc.query, pl.Explain)
		}
		root, rewrote := Parallelize(pl.Root, 4)
		if !rewrote {
			t.Errorf("%s: Parallelize reported no rewrite", tc.query)
		}
		if !findOperatorType(root, tc.want) {
			t.Errorf("%s:\nrewritten plan has no %s (root %T)", tc.query, tc.want, root)
		}
		// The join must have been absorbed into the parallel pipeline, not
		// left as a serial stage above it.
		if findOperatorType(root, "*exec.VectorizedHashJoin") {
			t.Errorf("%s: join left outside the parallel pipeline", tc.query)
		}
	}

	// A join whose build side clears the threshold gets a morsel-parallel
	// build; a small build side stays serial.
	pl := planFor(t, c, "SELECT bname, COUNT(*) FROM big, bigdims WHERE grp = bkey GROUP BY bname OPTION(HASH JOIN)")
	join := findVectorizedJoin(pl.Root)
	if join == nil {
		t.Fatalf("big-build query plan has no VectorizedHashJoin: %s", pl.Explain)
	}
	if _, rewrote := Parallelize(pl.Root, 4); !rewrote {
		t.Error("Parallelize reported no rewrite for the big-build join")
	}
	if got := join.BuildParallelism(); got != 4 {
		t.Errorf("big build side: BuildParallelism() = %d, want 4", got)
	}
	pl = planFor(t, c, "SELECT dname, COUNT(*) FROM big, dims WHERE grp = dkey GROUP BY dname")
	join = findVectorizedJoin(pl.Root)
	if join == nil {
		t.Fatal("small-build query plan has no VectorizedHashJoin")
	}
	Parallelize(pl.Root, 4)
	if got := join.BuildParallelism(); got != 1 {
		t.Errorf("small build side: BuildParallelism() = %d, want 1 (below threshold)", got)
	}

	// A build side that is not a plain pipeline — a derived table with its own
	// aggregate — cannot hash into per-worker partitions, but its subtree
	// still rides the general rewrite: the join must end up draining a
	// parallel aggregate.
	pl = planFor(t, c, "SELECT grp, COUNT(*) FROM big, (SELECT bname FROM bigdims GROUP BY bname) d WHERE grp = bname GROUP BY grp")
	join = findVectorizedJoin(pl.Root)
	if join == nil {
		t.Fatalf("derived-build query plan has no VectorizedHashJoin: %s", pl.Explain)
	}
	if _, rewrote := Parallelize(pl.Root, 4); !rewrote {
		t.Error("Parallelize reported no rewrite for the derived-build join")
	}
	if join.BuildParallelism() != 1 {
		t.Errorf("derived build side claims a partitioned parallel build (workers %d)", join.BuildParallelism())
	}
	if !findOperatorType(join.Build, "*exec.ParallelHashAggregate") && !findOperatorType(join.Build, "*exec.ParallelStreamAggregate") {
		t.Errorf("derived build side did not parallelize its aggregate (build %T)", join.Build)
	}
}

// containerInput returns the single input of a pass-through container
// operator (Filter/Project/Limit/Sort/aggregates), for the test walks below.
func containerInput(op exec.Operator) (exec.Operator, bool) {
	switch t := op.(type) {
	case *exec.Filter:
		return t.Input, true
	case *exec.Project:
		return t.Input, true
	case *exec.Limit:
		return t.Input, true
	case *exec.Sort:
		return t.Input, true
	case *exec.HashAggregate:
		return t.Input, true
	case *exec.StreamAggregate:
		return t.Input, true
	default:
		return nil, false
	}
}

// findVectorizedJoin returns the first vectorized hash join in the tree.
func findVectorizedJoin(op exec.Operator) *exec.VectorizedHashJoin {
	if j, ok := op.(*exec.VectorizedHashJoin); ok {
		return j
	}
	if in, ok := containerInput(op); ok {
		return findVectorizedJoin(in)
	}
	return nil
}

// TestParallelizeSeeks pins the range-scan rewrite: a wide clustered-key
// range seek (and a wide covering index seek) partitions into leaf-range
// morsels bounded by the seek's stop key, while a selective seek — the whole
// point of seeking — stays serial. The seeks run on huge (about 170 data
// pages), where they cost less than a scan; on big (about 64 pages) a
// bounded seek's descent of two random reads costs more than the scan's one
// random read and 63 sequential ones, so the same predicates scan there.
func TestParallelizeSeeks(t *testing.T) {
	c := newParallelCatalog(t)
	loadWideTable(t, c, "huge", 8*ParallelRowThreshold)
	for _, tbl := range []string{"big", "huge"} {
		if _, err := c.CreateIndex(tbl+"_amount", tbl, []string{"amount"}, []string{"grp"}, false); err != nil {
			t.Fatal(err)
		}
	}
	wide := []struct {
		query string
		path  string // access path expected at the bottom of the pipeline
		want  string
	}{
		// id is the clustered key: a range predicate selecting ~40% of the
		// table compiles to a ClusteredSeek that still clears the threshold.
		{"SELECT grp, COUNT(*) FROM huge WHERE id > 40000 GROUP BY grp", "ClusteredSeek", "*exec.ParallelHashAggregate"},
		{"SELECT id, grp FROM huge WHERE id > 40000 AND grp = 7", "ClusteredSeek", "*exec.ParallelMerge"},
		// amount has a covering secondary index: a ~25%-selective range
		// predicate compiles to a covering IndexSeek over ~16,000 entries —
		// above the threshold, so the entry range partitions too.
		{"SELECT grp, COUNT(*) FROM huge WHERE amount > 750.0 GROUP BY grp", "IndexSeek", "*exec.ParallelHashAggregate"},
	}
	for _, tc := range wide {
		pl := planFor(t, c, tc.query)
		if !strings.Contains(pl.Explain, tc.path) {
			t.Fatalf("%s: expected a %s access path: %s", tc.query, tc.path, pl.Explain)
		}
		root, rewrote := Parallelize(pl.Root, 4)
		if !rewrote {
			t.Errorf("%s: wide seek did not parallelize (%s)", tc.query, pl.Explain)
			continue
		}
		if !findOperatorType(root, tc.want) {
			t.Errorf("%s: rewritten plan has no %s (root %T)", tc.query, tc.want, root)
		}
	}
	// A selective equality seek stays serial: its range estimate is far below
	// the threshold.
	pl := planFor(t, c, "SELECT grp, COUNT(*) FROM huge WHERE id = 123 GROUP BY grp")
	if !strings.Contains(pl.Explain, "ClusteredSeek") {
		t.Fatalf("selective query lost its seek: %s", pl.Explain)
	}
	if _, rewrote := Parallelize(pl.Root, 4); rewrote {
		t.Error("selective equality seek was parallelized")
	}
	// On big the same shapes seek too, since the bulk-loaded trees' leaf
	// models price a start at one random read, and stay serial: their
	// ranges are below the threshold.
	for _, q := range []struct{ sql, path string }{
		{"SELECT grp, COUNT(*) FROM big WHERE id = 123 GROUP BY grp", "ClusteredSeek"},
		{"SELECT grp, COUNT(*) FROM big WHERE amount > 750.0 GROUP BY grp", "IndexSeek"},
	} {
		pl := planFor(t, c, q.sql)
		if !strings.Contains(pl.Explain, q.path) {
			t.Errorf("%s: expected a %s of the 64-page table: %s", q.sql, q.path, pl.Explain)
		}
		if _, rewrote := Parallelize(pl.Root, 4); rewrote {
			t.Errorf("%s: a seek below the threshold was parallelized", q.sql)
		}
	}
}

// TestParallelizeLeavesSmallScansSerial: a table below the threshold keeps
// its serial plan.
func TestParallelizeLeavesSmallScansSerial(t *testing.T) {
	c := catalog.New(storage.NewPager(0))
	tbl, err := c.CreateTable("small", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "grp", Kind: value.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for i := 0; i < ParallelRowThreshold/2; i++ {
		rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 5))})
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	pl := planFor(t, c, "SELECT grp, COUNT(*) FROM small GROUP BY grp")
	root, rewrote := Parallelize(pl.Root, 4)
	if rewrote {
		t.Error("Parallelize reported a rewrite on a sub-threshold scan")
	}
	for _, typ := range []string{"*exec.ParallelHashAggregate", "*exec.ParallelStreamAggregate", "*exec.ParallelMerge", "*exec.ParallelSort"} {
		if findOperatorType(root, typ) {
			t.Errorf("sub-threshold scan was parallelized with %s", typ)
		}
	}
}

// findOperatorType walks the operator tree looking for a node whose dynamic
// type renders as want.
func findOperatorType(op exec.Operator, want string) bool {
	if fmt.Sprintf("%T", op) == want {
		return true
	}
	if in, ok := containerInput(op); ok {
		return findOperatorType(in, want)
	}
	if j, ok := op.(*exec.VectorizedHashJoin); ok {
		return findOperatorType(j.Probe, want)
	}
	return false
}

// foreignPassThrough is an operator Parallelize has never heard of: it
// describes its one child slot and says whether that input may be re-planned.
type foreignPassThrough struct {
	in     exec.Operator
	replan bool
}

func (p *foreignPassThrough) Schema() []exec.ColumnInfo             { return p.in.Schema() }
func (p *foreignPassThrough) Open() error                           { return p.in.Open() }
func (p *foreignPassThrough) Next() (exec.Row, bool, error)         { return p.in.Next() }
func (p *foreignPassThrough) NextBatch() (*exec.Batch, bool, error) { return p.in.NextBatch() }
func (p *foreignPassThrough) Close() error                          { return p.in.Close() }
func (p *foreignPassThrough) ReplanInputs() bool                    { return p.replan }
func (p *foreignPassThrough) Child(i int) *exec.Operator {
	if i == 0 {
		return &p.in
	}
	return nil
}

// TestForeignOperatorIsWalkedByParallelize: the rewrite follows what an
// operator declares, not what it is. Under a foreign node that declares its
// input re-plannable the scan-filter pipeline becomes a ParallelMerge; under
// one that does not — the position every row join takes — the subtree stays
// exactly as planned. Either way the answer is the serial plan's.
func TestForeignOperatorIsWalkedByParallelize(t *testing.T) {
	c := newParallelCatalog(t)
	const query = "SELECT id, amount FROM big WHERE amount > 990"
	want, err := exec.DrainBatches(nil, planFor(t, c, query).Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, replan := range []bool{true, false} {
		planned := planFor(t, c, query).Root
		foreign := &foreignPassThrough{in: planned, replan: replan}
		root, rewrote := Parallelize(foreign, 4)
		if root != exec.Operator(foreign) {
			t.Fatalf("replan=%v: the foreign node itself was replaced by %T", replan, root)
		}
		if _, parallel := foreign.in.(*exec.ParallelMerge); parallel != replan || rewrote != replan {
			t.Errorf("replan=%v: input is %T, rewrote=%v", replan, foreign.in, rewrote)
		}
		if !replan && foreign.in != planned {
			t.Errorf("an input not declared re-plannable was replaced by %T", foreign.in)
		}
		got, err := exec.DrainBatches(nil, root)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("replan=%v: %d rows differ from the serial plan's %d", replan, len(got), len(want))
		}
	}
}
