package ctable

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// FuzzCTableBuild builds a design over a small source the fuzzer shapes: one
// to three columns of INT, DATE or VARCHAR values from small domains, so
// values repeat, with NULLs, sorted on the first one to all of them. The
// design must pass Verify, and every c-table and its v index must hold what
// the reference algorithm (a stable value.Compare sort, then runs cut where
// the column or an earlier one changes) derives from the same source rows.
func FuzzCTableBuild(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x12, 0, 0, 0, 7, 7, 7, 1, 2, 1, 2, 0, 14, 21, 3, 3, 3})
	f.Add([]byte{0x29, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 28, 35, 42})
	f.Add([]byte("\x3a the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ncols := 1 + int(data[0]%3)
		nsort := 1 + int(data[0]/3%3)%ncols
		kinds := []string{"INT", "DATE", "VARCHAR(8)"}
		colKinds := make([]string, ncols)
		names := make([]string, ncols)
		for c := range ncols {
			colKinds[c] = kinds[int(data[0]/9+byte(c))%3]
			names[c] = fmt.Sprintf("c%d", c)
		}
		data = data[1:]
		var rows [][]value.Value
		for i := 0; i+ncols <= len(data) && len(rows) < 200; i += ncols {
			row := []value.Value{value.NewInt(int64(len(rows)))}
			for c := range ncols {
				row = append(row, fuzzValue(colKinds[c], data[i+c]))
			}
			rows = append(rows, row)
		}
		e := engine.New(engine.Options{})
		defs := []string{"id INT"}
		for c := range ncols {
			defs = append(defs, names[c]+" "+colKinds[c])
		}
		if _, err := e.Execute("CREATE TABLE src (" + strings.Join(defs, ", ") + ", PRIMARY KEY (id))"); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad("src", rows); err != nil {
			t.Fatal(err)
		}
		source := "SELECT " + strings.Join(names, ", ") + " FROM src"
		src, err := e.Query(source)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTables(src.Rows, ncols)
		d, err := NewBuilder(e).Build("d", source, names, names[:nsort])
		if err != nil {
			t.Fatal(err)
		}
		if err := NewBuilder(e).Verify(d); err != nil {
			t.Fatal(err)
		}
		if d.NumRows != int64(len(rows)) {
			t.Fatalf("design holds %d rows, source %d", d.NumRows, len(rows))
		}
		for depth, ct := range d.Columns {
			if ct.Depth != depth || ct.Runs != int64(len(want[depth])) {
				t.Fatalf("%s: depth %d, %d runs; want depth %d, %d runs", ct.Table, ct.Depth, ct.Runs, depth, len(want[depth]))
			}
			checkTable(t, e, ct, want[depth])
		}
	})
}

// fuzzValue maps one byte to a value of a column of the given type: NULL for
// one byte in seven, else one of a few values, so that runs form.
func fuzzValue(kind string, b byte) value.Value {
	if b%7 == 0 {
		return value.Null()
	}
	switch kind {
	case "INT":
		return value.NewInt(int64(b%11) - 5)
	case "DATE":
		return value.NewDate(9000 + int64(b%13))
	}
	return value.NewString([]string{"", "a", "a\x00", "ab", "b", "zz"}[b%6])
}
