package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"oldelephant/internal/value"
)

// wireFuzzSentinel is the request FuzzWireRequest appends to every input: an
// unknown op whose error names it, so its response marks the end of the
// input's responses.
const wireFuzzSentinel = `{"op":"fuzz-sentinel-7f3a"}`

// FuzzWireRequest runs newline-delimited request lines through serveConn
// over net.Pipe, against a fresh in-memory server holding two tables of a
// few rows. Every non-empty line up to the first close request gets exactly
// one response, in order, and each response parses as a Response; a close
// request ends the loop; nothing panics; and every input is served within a
// deadline. The seeds hold every op of the wire protocol. However large a
// set request's parallelism, admission.acquire clamps what a query is
// granted to the server's core budget, so no input starts more workers.
func FuzzWireRequest(f *testing.F) {
	ops := []string{
		`{"op":"query","sql":"SELECT grp, COUNT(*), SUM(amount) FROM items GROUP BY grp"}`,
		`{"op":"query","sql":"EXPLAIN ANALYZE SELECT i.id, g.label FROM items i, grps g WHERE i.grp = g.grp"}`,
		`{"op":"query","sql":"INSERT INTO grps VALUES (7, 'seven')"}`,
		`{"op":"prepare","name":"q1","sql":"SELECT amount FROM items WHERE id = 2"}`,
		`{"op":"exec","name":"q1"}`,
		`{"op":"set","parallelism":2,"timeout_ms":500,"slow_ms":250}`,
		`{"op":"metrics"}`,
		`{"op":"workload","limit":100}`,
		`{"op":"ping"}`,
		`{"op":"close"}`,
	}
	for _, op := range ops {
		f.Add([]byte(op + "\n"))
	}
	f.Add([]byte(strings.Join(ops, "\n")))
	f.Add([]byte(ops[3] + "\n" + ops[4] + "\r\n\n" + ops[9] + "\n" + ops[8] + "\n"))
	f.Add([]byte("not json\n{}\n{\"op\":\"exec\",\"name\":\"missing\"}\n{\"op\":\"set\",\"parallelism\":0,\"timeout_ms\":-1}\n{\"op\":\"query\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := newTestServer(t, 6, Options{})
		defer srv.Close()
		eng := srv.Engine()
		if _, err := eng.Execute("CREATE TABLE grps (grp INT, label VARCHAR(8), PRIMARY KEY (grp))"); err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad("grps", [][]value.Value{
			{value.NewInt(0), value.NewString("zero")},
			{value.NewInt(1), value.NewString("one")},
			{value.NewInt(2), value.Null()},
		}); err != nil {
			t.Fatal(err)
		}

		// The responses due: one per non-empty line (as bufio.ScanLines cuts
		// them) up to and including the first close.
		want, closes := 0, false
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			want++
			var req Request
			if json.Unmarshal(line, &req) == nil && req.Op == "close" {
				closes = true
				break
			}
		}

		client, conn := net.Pipe()
		defer client.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serveConn(conn)
		}()
		deadline := time.Now().Add(20 * time.Second)
		client.SetDeadline(deadline)
		payload := append(bytes.Clone(data), '\n')
		go client.Write(append(payload, wireFuzzSentinel+"\n"...))

		r := bufio.NewReader(client)
		for got := 0; ; got++ {
			line, err := r.ReadBytes('\n')
			if err != nil {
				if !closes {
					t.Fatalf("after %d of %d responses: %v", got, want, err)
				}
				if got != want {
					t.Fatalf("the connection closed after %d responses, want %d", got, want)
				}
				break
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("response %d does not parse: %v: %.200s", got, err, line)
			}
			if strings.Contains(resp.Error, "fuzz-sentinel-7f3a") {
				if closes || got != want {
					t.Fatalf("%d responses before the sentinel's, want %d (close: %v)", got, want, closes)
				}
				break
			}
			if closes && got == want-1 && !resp.OK {
				t.Fatalf("close answered %.200s", line)
			}
		}
		client.Close()
		select {
		case <-served:
		case <-time.After(time.Until(deadline)):
			t.Fatal("serveConn did not return within the deadline")
		}
	})
}
