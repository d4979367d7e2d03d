package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadWorkloadLog feeds arbitrary bytes to the workload log reader, an
// untrusted decoder: a log file may be torn, foreign or hostile. It must not
// panic; it must return only records of the current version; and what it
// allocates must stay within a fixed multiple of the file's size (plus the
// reader's fixed buffers), however the bytes are shaped. The seeds hold
// records as the server writes them, a torn tail, another version, a line
// too long to buffer and a file of the shortest records.
func FuzzReadWorkloadLog(f *testing.F) {
	rec, err := json.Marshal(WorkloadRecord{V: WorkloadRecordVersion, TSMicros: 7, Session: 2, SQL: "SELECT 1", Fingerprint: "SELECT ?", WallUS: 5})
	if err != nil {
		f.Fatal(err)
	}
	line := append(rec, '\n')
	f.Add(line)
	f.Add(bytes.Repeat(line, 3))
	f.Add(append(bytes.Repeat(line, 2), rec[:len(rec)/2]...))
	f.Add([]byte(`{"v":99,"sql":"future"}` + "\n" + string(line)))
	f.Add([]byte(`{"v":1,"sql":"` + strings.Repeat(`\u0000`, 5000) + `"}`))
	f.Add(bytes.Repeat([]byte(`{"v":1}`+"\n"), 2000))
	f.Add(bytes.Repeat([]byte("{}\n"), 5000))
	f.Add(bytes.Repeat([]byte("{\"v\":1,\"io\":{}}\n"), 2000))
	f.Add([]byte("\n\n\x00\xff{\n"))
	path := filepath.Join(f.TempDir(), "workload.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := ReadWorkloadLog(path)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+256*len(data)); alloc > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, more than %d", len(data), alloc, limit)
		}
		if err != nil && len(recs) > 0 {
			t.Fatalf("error %v beside %d records", err, len(recs))
		}
		for i, r := range recs {
			if r.V != WorkloadRecordVersion {
				t.Fatalf("record %d has version %d", i, r.V)
			}
		}
	})
}
