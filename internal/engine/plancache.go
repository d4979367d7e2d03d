package engine

import (
	"container/list"
	"sync"

	"oldelephant/internal/plan"
	"oldelephant/internal/sql"
)

// The plan cache lets repeated queries skip the lexer, parser and planner
// entirely. A compiled plan is an operator tree whose operators keep
// iteration state while they run, so a plan instance must never execute
// twice concurrently; instead of deep-cloning twenty operator types the
// cache leases instances: acquire removes a compiled plan from the entry's
// idle pool (a concurrent second execution of the same query misses the
// pool, reuses the cached AST and replans), and release returns it after a
// successful execution.
//
// An entry is one statement text (its normalized form) — or one shape: the
// prepared point lookups that differ only in their key literals
// (see Prepared) share one entry and its one parse tree, the shape's, with
// parameter slots where the literals were. The planner records where a
// plan holds each slot's value (its seek bounds and predicate constants) and
// makes no choice from those values, so a lease binds the executing
// handle's literals into whichever instance it gets. A plan whose parallel
// rewrite sized a range the slots bound is not cached: that choice was made
// for its values alone. Either way a prepared statement never repays a
// parse: a shape's handle replans from the shape's tree.
//
// An idle plan holds its operator tree, its sources' key bounds and its
// plan-time choices (access paths, join methods, serial or parallel), and
// nothing of its last execution: a scan takes its column, code and span
// buffers and its string dictionaries from the executor's shared pool at
// its first fill and returns them as it closes; a parallel operator splits
// its source into morsels as it opens and drops them as it closes; joins
// and breakers drop their tables. So what a cache of idle plans costs does
// not grow with the data or the buffer pool, and no idle plan reaches a
// page frame.
//
// Every catalog or design change still clears the cache wholesale: the
// plan-time choices rest on row counts and designs that any schema or data
// change can invalidate, and mutations are rare in this read-mostly serving
// model. Acquire/release run under the engine's shared (read) lock and
// invalidation under its exclusive lock, so a stale plan can never be
// leased: a mutation cannot interleave with an in-flight lease.

// planKey identifies a cached plan: the normalized SQL text — a shape's,
// with the kinds of its slots — plus the worker count of the parallel
// rewrite. The executor mode is fixed for an engine's life, so it needs no
// place in the key.
type planKey struct {
	sql         string
	kinds       string
	parallelism int
}

// maxIdlePlans bounds each entry's pool of compiled plan instances; under
// higher same-query concurrency the overflow executions replan from the
// cached AST.
const maxIdlePlans = 8

// planCacheSize is the cache's entry (distinct statement or shape) capacity.
const planCacheSize = 256

// PlanCacheStats is a snapshot of the plan cache's counters.
type PlanCacheStats struct {
	// Hits counts acquisitions that leased a ready compiled plan.
	Hits int64
	// StmtHits counts acquisitions that found no idle plan instance but
	// reused the cached parse tree (parse skipped, replanned).
	StmtHits int64
	// Misses counts acquisitions that found nothing.
	Misses int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// Invalidations counts wholesale clears (catalog/design changes).
	Invalidations int64
	// Entries is the current number of cached statements.
	Entries int
}

// HitRate returns Hits / (Hits + StmtHits + Misses), the fraction of lookups
// that skipped parse, plan and parallelize altogether.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.StmtHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	key  planKey
	stmt *sql.SelectStmt
	text string // the text stmt was parsed from; empty for a shape
	idle []*plan.Plan
	elem *list.Element
}

// planCache is a shared LRU cache of compiled plans with per-entry instance
// pools. All methods are safe for concurrent use.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planKey]*cacheEntry
	lru      *list.List // of *cacheEntry; front = most recently used
	stats    PlanCacheStats
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		entries:  make(map[planKey]*cacheEntry),
		lru:      list.New(),
	}
}

// acquire leases a compiled plan for the key, with the statement the entry
// compiled and the text it was parsed from. A nil plan with a non-nil stmt
// means the entry's pool was empty but the parse tree is reusable; both nil
// is a full miss.
func (c *planCache) acquire(key planKey) (*plan.Plan, *sql.SelectStmt, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, nil, ""
	}
	c.lru.MoveToFront(e.elem)
	if n := len(e.idle); n > 0 {
		pl := e.idle[n-1]
		e.idle = e.idle[:n-1]
		c.stats.Hits++
		return pl, e.stmt, e.text
	}
	c.stats.StmtHits++
	return nil, e.stmt, e.text
}

// release returns a plan instance (and the statement it was compiled from,
// with that statement's text) to the cache after a successful execution,
// creating the entry on first release and evicting the least recently used
// statement beyond capacity.
// Plans whose execution failed must not be released: their operator state is
// suspect, and re-leasing one would replay the failure.
func (c *planCache) release(key planKey, stmt *sql.SelectStmt, text string, pl *plan.Plan) {
	if pl == nil || stmt == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{key: key, stmt: stmt, text: text}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for c.lru.Len() > c.capacity {
			back := c.lru.Back()
			evicted := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.entries, evicted.key)
			c.stats.Evictions++
		}
	} else {
		c.lru.MoveToFront(e.elem)
	}
	if len(e.idle) < maxIdlePlans {
		e.idle = append(e.idle, pl)
	}
}

// invalidate drops every cached entry. Called under the engine's exclusive
// lock after any statement that can change the catalog, the data, or a
// physical design.
func (c *planCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 0 {
		c.entries = make(map[planKey]*cacheEntry)
		c.lru.Init()
	}
	c.stats.Invalidations++
}

// snapshot returns the current counters.
func (c *planCache) snapshot() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
