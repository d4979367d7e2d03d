package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// cancelSource is a row source that fires a cancel func after producing
// `after` rows, then keeps producing up to `limit`. It makes cancellation
// latency deterministic: a breaker that checks its context per drained batch
// stops within a couple of batches of the cancel point, while a breaker that
// only notices at the end consumes all `limit` rows.
type cancelSource struct {
	after    int64
	limit    int64
	cancel   context.CancelFunc
	produced int64
}

func (s *cancelSource) Schema() []ColumnInfo {
	return []ColumnInfo{{Name: "v", Kind: value.KindInt}}
}

func (s *cancelSource) Open() error {
	s.produced = 0
	return nil
}

func (s *cancelSource) Next() (Row, bool, error) {
	if s.produced >= s.limit {
		return nil, false, nil
	}
	if s.produced == s.after && s.cancel != nil {
		s.cancel()
	}
	s.produced++
	return Row{value.NewInt(s.produced)}, true, nil
}

func (s *cancelSource) NextBatch() (*Batch, bool, error) {
	return nextBatchFromRows(s, DefaultBatchSize)
}

func (s *cancelSource) Close() error { return nil }

// latencyBudget is how many rows past the cancel point a breaker may consume
// before noticing: the batch in flight when the context fires, plus the one
// being filled at the next check.
const latencyBudget = 2 * DefaultBatchSize

func checkCancelLatency(t *testing.T, name string, src *cancelSource, op Operator) {
	t.Helper()
	checkCancelLatencyPull(t, name, src, op, DrainBatches)
}

// checkCancelLatencyPull is checkCancelLatency through either drain.
func checkCancelLatencyPull(t *testing.T, name string, src *cancelSource, op Operator, pull func(context.Context, Operator) ([]Row, error)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	src.cancel = cancel
	defer cancel()
	_, err := pull(ctx, op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: drain returned %v, want context.Canceled", name, err)
	}
	if src.produced > src.after+latencyBudget {
		t.Fatalf("%s: consumed %d rows after cancellation (cancel at %d, budget %d)",
			name, src.produced-src.after, src.after, latencyBudget)
	}
	// The same plan drained again without a context must not see the stale
	// cancelled one (the plan-cache lease pattern): Open clears it.
	src.cancel = nil
	rows, err := pull(nil, op)
	if err != nil {
		t.Fatalf("%s: re-drain after cancellation failed: %v", name, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: re-drain after cancellation returned no rows", name)
	}
}

// TestCancelMidSort pins that Sort observes cancellation during its
// materialization drain, not after consuming the whole input.
func TestCancelMidSort(t *testing.T) {
	src := &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
	checkCancelLatency(t, "Sort", src, NewSort(src, []SortKey{{Col: 0}}))
}

// TestCancelMidHashAggregate pins the same for the aggregation build drain.
func TestCancelMidHashAggregate(t *testing.T) {
	src := &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
	agg := NewHashAggregate(src, []int{0}, []AggSpec{{Kind: AggCountStar, Name: "n"}})
	checkCancelLatency(t, "HashAggregate", src, agg)
}

// TestCancelMidJoinBuild pins that a vectorized hash join's build drain
// observes cancellation while consuming the build side.
func TestCancelMidJoinBuild(t *testing.T) {
	build := &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
	probe := &cancelSource{after: -1, limit: 8}
	join, err := NewVectorizedHashJoin(probe, build, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCancelLatency(t, "VectorizedHashJoin", build, join)
}

// TestCancelMidNestedLoopBuildOfRowJoins pins that the row joins which
// materialize their right side — NestedLoopJoin, the production fallback for
// non-equi joins, and the oracle HashJoin — do so on the first pull, under
// the pushed context, rather than uninterruptibly inside Open. Through both
// pulls: the engine drains them by batches, the row oracle by rows.
func TestCancelMidNestedLoopBuildOfRowJoins(t *testing.T) {
	pulls := map[string]func(context.Context, Operator) ([]Row, error){"batch": DrainBatches, "row": Drain}
	for pullName, pull := range pulls {
		right := &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
		nlj := NewNestedLoopJoin(&cancelSource{after: -1, limit: 1}, right, nil)
		checkCancelLatencyPull(t, "NestedLoopJoin/"+pullName, right, nlj, pull)

		right = &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
		hj, err := NewHashJoin(&cancelSource{after: -1, limit: 8}, right, []int{0}, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCancelLatencyPull(t, "HashJoin/"+pullName, right, hj, pull)
	}
}

// foreignPassThrough is an operator none of this package's tree walks has
// heard of. It describes itself — one child slot — and nothing more.
type foreignPassThrough struct{ in Operator }

func (p *foreignPassThrough) Schema() []ColumnInfo             { return p.in.Schema() }
func (p *foreignPassThrough) Open() error                      { return p.in.Open() }
func (p *foreignPassThrough) Next() (Row, bool, error)         { return p.in.Next() }
func (p *foreignPassThrough) NextBatch() (*Batch, bool, error) { return p.in.NextBatch() }
func (p *foreignPassThrough) Close() error                     { return p.in.Close() }
func (p *foreignPassThrough) Child(i int) *Operator            { return slot(i, &p.in) }

// TestForeignOperatorIsWalkedByCancelAndTrace: the walks reach through an
// operator type defined outside the package's own set. A context cancelled
// while a Sort under the foreign node materializes 100k rows stops the sort;
// InstrumentPlan gives the foreign node a span of its own with the sort's
// span as its child; and the per-execution context push allocates nothing.
func TestForeignOperatorIsWalkedByCancelAndTrace(t *testing.T) {
	src := &cancelSource{after: 4 * DefaultBatchSize, limit: 100_000}
	plan := &foreignPassThrough{in: NewSort(src, []SortKey{{Col: 0, Desc: true}})}
	checkCancelLatency(t, "foreign(Sort)", src, plan)

	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { ApplyContext(plan, ctx) }); allocs != 0 {
		t.Errorf("ApplyContext allocates %.0f times per push, want 0", allocs)
	}

	src.cancel = nil
	root, span := InstrumentPlan(plan)
	rows, err := DrainBatches(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if span.Name != "foreignPassThrough" || len(span.Children) != 1 || span.Children[0].Name != "Sort" ||
		len(span.Children[0].Children) != 1 || span.Children[0].Children[0].Name != "cancelSource" {
		t.Fatalf("span tree is not foreignPassThrough(Sort(cancelSource)):\n%s", span.Format())
	}
	if n := int64(len(rows)); n != src.limit || span.Rows != n || span.Children[0].Rows != n {
		t.Errorf("drained %d rows of %d; spans report %d over %d", n, src.limit, span.Rows, span.Children[0].Rows)
	}
}

// TestCancelRowDrain pins the row-protocol drain's per-batch-equivalent check.
func TestCancelRowDrain(t *testing.T) {
	src := &cancelSource{after: 4 * DefaultBatchSize, limit: 200 * DefaultBatchSize}
	ctx, cancel := context.WithCancel(context.Background())
	src.cancel = cancel
	defer cancel()
	_, err := Drain(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("row Drain returned %v, want context.Canceled", err)
	}
	if src.produced > src.after+latencyBudget {
		t.Fatalf("row Drain consumed %d rows past the cancel point", src.produced-src.after)
	}
}

// TestCancelMidBandJoin pins that an index nested-loop join whose residual
// rejects every match still notices a deadline: each pull walks the outer
// input looking for a row to return, so the drain's between-pull check never
// runs, and before the join took the context a passed deadline went unnoticed
// and the drain returned an empty result with no error. Every outer row's
// range covers the whole inner table, so no two ranges coalesce and the full
// join is seconds of work; the deadline must end it. Through both pulls.
func TestCancelMidBandJoin(t *testing.T) {
	c := catalog.New(storage.NewPager(0))
	inner, err := c.CreateTable("inner", []catalog.Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "w", Kind: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	var innerRows [][]value.Value
	for i := range 200 {
		innerRows = append(innerRows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i))})
	}
	if err := inner.BulkLoad(innerRows); err != nil {
		t.Fatal(err)
	}
	outerRows := make([]Row, 50_000)
	for i := range outerRows {
		outerRows[i] = intRow(int64(i))
	}
	spec := InnerSeekSpec{
		Table:   inner,
		LoExprs: []expr.Expr{expr.NewConst(value.NewInt(0))},
		HiExprs: []expr.Expr{expr.NewConst(value.NewInt(1 << 20))},
		LoIncl:  true, HiIncl: true,
	}
	never := expr.NewBinary(expr.OpLt, expr.NewColumn(2, "w"), expr.NewConst(value.NewInt(0)))
	pulls := map[string]func(context.Context, Operator) ([]Row, error){"batch": DrainBatches, "row": Drain}
	for name, pull := range pulls {
		join, err := NewIndexNestedLoopJoin(NewValuesScan(intCols("o"), outerRows), spec, never)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		rows, err := pull(ctx, join)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: drain returned %d rows and %v after %v, want context.DeadlineExceeded",
				name, len(rows), err, time.Since(start))
		}
	}
}
