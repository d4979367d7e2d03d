package server

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"
)

// TestWireFrameSizes: a connection's request buffer starts small and grows,
// so a 1 MiB request line still round-trips, and a line above maxLineBytes
// is still refused by closing the connection without a reply.
func TestWireFrameSizes(t *testing.T) {
	srv := newTestServer(t, 100, Options{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	roundTrip := dialWire(t, l.Addr().String())
	long := "SELECT COUNT(*)" + strings.Repeat(" ", 1<<20) + "FROM items WHERE id < 40"
	resp := roundTrip(Request{Op: "query", SQL: long})
	if !resp.OK || len(resp.Rows) != 1 || resp.Rows[0][0] != float64(40) {
		t.Fatalf("1 MiB request: ok=%v rows=%v error=%q", resp.OK, resp.Rows, resp.Error)
	}
	resp = roundTrip(Request{Op: "query", SQL: "SELECT COUNT(*) FROM items"})
	if !resp.OK || resp.Rows[0][0] != float64(100) {
		t.Fatalf("request after the 1 MiB one: ok=%v rows=%v error=%q", resp.OK, resp.Rows, resp.Error)
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// The server stops reading once the line passes the bound, so the
		// rest of this write may fail; only the reply matters.
		frame := `{"op":"query","sql":"SELECT COUNT(*)` + strings.Repeat(" ", maxLineBytes) + `FROM items"}` + "\n"
		conn.Write([]byte(frame))
	}()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if line, err := bufio.NewReader(conn).ReadBytes('\n'); err == nil {
		t.Fatalf("a line above %d bytes got a reply: %.200s", maxLineBytes, line)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the connection stayed open after a line above the bound")
	}
}
