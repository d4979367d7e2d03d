package exec

import (
	"fmt"
	"strings"
	"time"

	"oldelephant/internal/trace"
)

// Operator instrumentation for EXPLAIN ANALYZE. InstrumentPlan rewrites an
// operator tree so that every node reports rows, batches, calls and inclusive
// wall time into a trace.Span tree. Instrumentation is wrapper-based: a plan
// that is not instrumented contains no tracing code at all — the untraced hot
// path is byte-for-byte the same executable as before this package existed,
// which is how the "zero overhead when tracing is off" contract is met.
//
// The span tree is the tree of child slots the operators declare (Parent). A
// parallel operator declares none — its per-morsel pipelines run on worker
// goroutines, which must not share a Span — so the wrapper observes only its
// merged output stream and it reports its worker/morsel structure as span
// attributes (SpanAnnotator). The same holds for a vectorized hash join's
// parallel build, which reports build-side cardinality and worker count as
// attributes instead of a wrapped subtree.

// SpanAnnotator is declared by operators that report more than the counters
// every span carries. TraceAttrs is called as the instrumented operator
// closes, before its own Close releases what it would report.
type SpanAnnotator interface {
	TraceAttrs(sp *trace.Span)
}

// traced wraps one operator with its span, counting whichever pull the parent
// uses.
type traced struct {
	op Operator
	sp *trace.Span
}

// Schema implements Operator.
func (t *traced) Schema() []ColumnInfo { return t.op.Schema() }

// Child implements Parent, so a context applied to an instrumented plan
// reaches the operators under the wrappers.
func (t *traced) Child(i int) *Operator { return slot(i, &t.op) }

// Open implements Operator.
func (t *traced) Open() error {
	start := time.Now()
	err := t.op.Open()
	t.sp.Wall += time.Since(start)
	return err
}

// Next implements Operator.
func (t *traced) Next() (Row, bool, error) {
	start := time.Now()
	row, ok, err := t.op.Next()
	t.sp.Wall += time.Since(start)
	t.sp.Calls++
	if ok {
		t.sp.Rows++
	}
	return row, ok, err
}

// NextBatch implements Operator.
func (t *traced) NextBatch() (*Batch, bool, error) {
	start := time.Now()
	b, ok, err := t.op.NextBatch()
	t.sp.Wall += time.Since(start)
	t.sp.Calls++
	if ok {
		t.sp.Batches++
		t.sp.Rows += int64(b.NumRows())
	}
	return b, ok, err
}

// Close implements Operator.
func (t *traced) Close() error {
	if a, ok := t.op.(SpanAnnotator); ok {
		a.TraceAttrs(t.sp)
	}
	start := time.Now()
	err := t.op.Close()
	t.sp.Wall += time.Since(start)
	return err
}

// spanName is the TraceName an operator declares, or else its type's name:
// "Filter" for *exec.Filter.
func spanName(op Operator) string {
	if n, ok := op.(interface{ TraceName() string }); ok {
		return n.TraceName()
	}
	name := fmt.Sprintf("%T", op)
	return name[strings.LastIndexByte(name, '.')+1:]
}

// InstrumentPlan wraps every operator of the tree rooted at root with a
// tracing collector and returns the instrumented root together with the root
// of the matching span tree. The returned operator must be executed instead
// of the original (child slots inside the original tree are rewritten to
// point at wrappers). Instrumented plans must not be returned to a plan
// cache.
func InstrumentPlan(root Operator) (Operator, *trace.Span) {
	sp := trace.New(spanName(root))
	if p, ok := root.(Parent); ok {
		for i := 0; ; i++ {
			child := p.Child(i)
			if child == nil {
				break
			}
			wrapped, csp := InstrumentPlan(*child)
			*child = wrapped
			sp.Children = append(sp.Children, csp)
		}
	}
	return &traced{op: root, sp: sp}, sp
}
