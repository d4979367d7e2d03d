package tpch

import (
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

func TestCountsScale(t *testing.T) {
	g := NewGenerator(0.01)
	c := g.Counts()
	if c["customer"] != 1500 || c["orders"] != 15000 || c["supplier"] != 100 {
		t.Errorf("counts = %v", c)
	}
	if c["region"] != 5 || c["nation"] != 25 {
		t.Errorf("fixed tables scaled: %v", c)
	}
	tiny := NewGenerator(0.0000001).Counts()
	if tiny["orders"] < 1 {
		t.Error("counts should be at least 1")
	}
}

func TestDDLKnownTables(t *testing.T) {
	for _, name := range TableNames() {
		ddl, err := DDL(name)
		if err != nil || ddl == "" {
			t.Errorf("DDL(%s) failed: %v", name, err)
		}
	}
	if _, err := DDL("bogus"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := NewGenerator(1).Rows("bogus"); err == nil {
		t.Error("unknown table rows should fail")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a := NewGenerator(0.002)
	b := NewGenerator(0.002)
	for _, table := range []string{"customer", "orders", "lineitem"} {
		ra, err := a.Rows(table)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Rows(table)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%s row counts differ: %d vs %d", table, len(ra), len(rb))
		}
		for i := range ra {
			for j := range ra[i] {
				if value.Compare(ra[i][j], rb[i][j]) != 0 {
					t.Fatalf("%s row %d col %d differs", table, i, j)
				}
			}
		}
	}
}

func TestLineitemDistributions(t *testing.T) {
	g := NewGenerator(0.005)
	rows, err := g.Rows("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	expected := g.Counts()["lineitem"]
	if len(rows) < expected/2 || len(rows) > expected*2 {
		t.Errorf("lineitem rows = %d, expected about %d", len(rows), expected)
	}
	flagCounts := map[string]int{}
	minShip, maxShip := int64(1<<62), int64(-1)
	returnBeforeCutoff := 0
	for _, r := range rows {
		flag := r[8].S
		flagCounts[flag]++
		ship := r[10].Int()
		if ship < minShip {
			minShip = ship
		}
		if ship > maxShip {
			maxShip = ship
		}
		receipt := r[12].Int()
		if flag != "N" && receipt > currentDate {
			returnBeforeCutoff++
		}
		if r[3].Int() < 1 || r[3].Int() > 7 {
			t.Fatalf("linenumber out of range: %v", r[3])
		}
		if r[4].Float() < 1 || r[4].Float() > 50 {
			t.Fatalf("quantity out of range: %v", r[4])
		}
	}
	if flagCounts["R"] == 0 || flagCounts["A"] == 0 || flagCounts["N"] == 0 {
		t.Errorf("return flags not all present: %v", flagCounts)
	}
	// Roughly half the rows precede the 1995-06-17 cutoff, so R+A should be a
	// large minority of all rows.
	frac := float64(flagCounts["R"]+flagCounts["A"]) / float64(len(rows))
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("R+A fraction = %f", frac)
	}
	if returnBeforeCutoff != 0 {
		t.Errorf("%d returned items received after the cutoff", returnBeforeCutoff)
	}
	if minShip < startDate || maxShip > endDate+130 {
		t.Errorf("ship dates out of range: %d..%d", minShip, maxShip)
	}
}

func TestOrderDatesConsistentWithLineitem(t *testing.T) {
	g := NewGenerator(0.002)
	orders, err := g.Rows("orders")
	if err != nil {
		t.Fatal(err)
	}
	lineitems, err := g.Rows("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	orderDate := make(map[int64]int64)
	for _, o := range orders {
		orderDate[o[0].Int()] = o[4].Int()
	}
	checked := 0
	for _, l := range lineitems {
		od, ok := orderDate[l[0].Int()]
		if !ok {
			t.Fatalf("lineitem references missing order %v", l[0])
		}
		ship := l[10].Int()
		if ship <= od || ship > od+121 {
			t.Fatalf("shipdate %d not within (orderdate, orderdate+121] (order date %d)", ship, od)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no lineitem rows checked")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	g := NewGenerator(0.002)
	customers, _ := g.Rows("customer")
	orders, _ := g.Rows("orders")
	nationSet := make(map[int64]bool)
	nations, _ := g.Rows("nation")
	for _, n := range nations {
		nationSet[n[0].Int()] = true
		if !nationSet[n[2].Int()] && n[2].Int() > 4 {
			t.Errorf("nation %v references missing region %v", n[0], n[2])
		}
	}
	custSet := make(map[int64]bool)
	for _, c := range customers {
		custSet[c[0].Int()] = true
		if !nationSet[c[2].Int()] {
			t.Errorf("customer %v references missing nation %v", c[0], c[2])
		}
	}
	for _, o := range orders {
		if !custSet[o[1].Int()] {
			t.Errorf("order %v references missing customer %v", o[0], o[1])
		}
	}
}

func TestLoadCoreIntoEngine(t *testing.T) {
	e := engine.Default()
	g := NewGenerator(0.001)
	if err := g.LoadCore(e); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Error("lineitem is empty")
	}
	// The join the workload depends on returns rows.
	res, err = e.Query("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	li, _ := e.Query("SELECT COUNT(*) FROM lineitem")
	if value.Compare(res.Rows[0][0], li.Rows[0][0]) != 0 {
		t.Errorf("every lineitem should join to an order: %v vs %v", res.Rows[0][0], li.Rows[0][0])
	}
	// Loading the same table twice fails cleanly.
	if err := g.Load(e, "lineitem"); err == nil {
		t.Error("double load should fail")
	}
}

func TestLoadAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full load in short mode")
	}
	e := engine.Default()
	g := NewGenerator(0.0005)
	if err := g.LoadAll(e); err != nil {
		t.Fatal(err)
	}
	for _, table := range TableNames() {
		res, err := e.Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatalf("count %s: %v", table, err)
		}
		if res.Rows[0][0].Int() == 0 {
			t.Errorf("table %s is empty", table)
		}
	}
}

// BenchmarkLoadCore generates and bulk-loads customer, orders and lineitem
// at SF 0.01 into a fresh engine: the set-up every experiment starts from.
func BenchmarkLoadCore(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(0.01)
	for b.Loop() {
		if err := g.LoadCore(engine.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
