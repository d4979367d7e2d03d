package exec

import (
	"context"
	"errors"
	"testing"

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

func (s *cancelSource) Close() error { return nil }

// latencyBudget is how many rows past the cancel point a breaker may consume
// before noticing: the batch in flight when the context fires, plus the one
// being filled at the next check.
const latencyBudget = 2 * DefaultBatchSize

func checkCancelLatency(t *testing.T, name string, src *cancelSource, op Operator) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	src.cancel = cancel
	defer cancel()
	_, err := DrainBatches(ctx, AsBatchOperator(op))
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
	rows, err := DrainBatches(nil, AsBatchOperator(op))
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
