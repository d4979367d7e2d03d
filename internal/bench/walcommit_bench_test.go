package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/storage/faultfs"
)

// The group-commit benchmark: N writers issue single-row INSERTs against a
// durable engine on the fault-injecting in-memory filesystem with a simulated
// 200µs fsync latency (an NVMe-class device). With one writer every commit
// pays its own fsync; with eight, concurrent commits batch behind one leader
// and fsyncs/commit drops below one — the whole point of group commit.
//
//	go test ./internal/bench -bench GroupCommit -benchtime 2000x
const benchSyncDelay = 200 * time.Microsecond

func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers_%d", writers), func(b *testing.B) {
			fs := faultfs.New(1)
			fs.SetSyncDelay(benchSyncDelay)
			eng, err := engine.Open(engine.Options{FS: fs})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Execute("CREATE TABLE log (id INT, note VARCHAR, PRIMARY KEY (id))"); err != nil {
				b.Fatal(err)
			}
			eng.ResetWALStats()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						id := next.Add(1)
						if id > int64(b.N) {
							return
						}
						stmt := fmt.Sprintf("INSERT INTO log VALUES (%d, 'commit-%d')", id, id)
						if _, err := eng.Execute(stmt); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			s := eng.WALStats()
			if s.Commits > 0 {
				b.ReportMetric(float64(s.Syncs)/float64(s.Commits), "fsyncs/commit")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
		})
	}
}
