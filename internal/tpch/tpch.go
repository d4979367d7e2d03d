// Package tpch generates deterministic, TPC-H-shaped data at a configurable
// scale factor and loads it into the engine. The generator follows the TPC-H
// schema and value distributions closely enough that the workload of the
// paper (selectivities on dates, supplier counts, return-flag fractions,
// run-length behaviour of sorted columns) behaves like the original
// benchmark, while remaining fully self-contained and offline.
package tpch

import (
	"fmt"
	"math/rand"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// Scale-factor-1 base cardinalities from the TPC-H specification.
const (
	customersPerSF = 150000
	ordersPerSF    = 1500000
	suppliersPerSF = 10000
	partsPerSF     = 200000
)

// Date range of the TPC-H data set.
var (
	startDate = value.MustParseDate("1992-01-01").Int()
	endDate   = value.MustParseDate("1998-08-02").Int()
	// currentDate is the TPC-H "current date" used for return flags.
	currentDate = value.MustParseDate("1995-06-17").Int()
)

// Generator produces the TPC-H tables at a given scale factor.
type Generator struct {
	// SF is the scale factor (1.0 = 6M lineitem rows). Fractional scale
	// factors are supported and are the norm for in-memory experiments.
	SF float64
	// Seed makes the data deterministic; generators with equal SF and Seed
	// produce identical data.
	Seed int64
}

// NewGenerator returns a generator with the default seed.
func NewGenerator(sf float64) *Generator { return &Generator{SF: sf, Seed: 7} }

// TableNames lists the generated tables in dependency order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "orders", "lineitem"}
}

// DDL returns the CREATE TABLE statement for a TPC-H table, with the primary
// (clustered) key the paper's Row baseline assumes.
func DDL(table string) (string, error) {
	switch table {
	case "region":
		return `CREATE TABLE region (r_regionkey INT, r_name VARCHAR(25), PRIMARY KEY (r_regionkey))`, nil
	case "nation":
		return `CREATE TABLE nation (n_nationkey INT, n_name VARCHAR(25), n_regionkey INT, PRIMARY KEY (n_nationkey))`, nil
	case "supplier":
		return `CREATE TABLE supplier (s_suppkey INT, s_name VARCHAR(25), s_nationkey INT, s_acctbal DOUBLE, PRIMARY KEY (s_suppkey))`, nil
	case "customer":
		return `CREATE TABLE customer (c_custkey INT, c_name VARCHAR(25), c_nationkey INT, c_acctbal DOUBLE, c_mktsegment VARCHAR(10), PRIMARY KEY (c_custkey))`, nil
	case "part":
		return `CREATE TABLE part (p_partkey INT, p_name VARCHAR(55), p_brand VARCHAR(10), p_type VARCHAR(25), p_retailprice DOUBLE, PRIMARY KEY (p_partkey))`, nil
	case "orders":
		return `CREATE TABLE orders (o_orderkey BIGINT, o_custkey INT, o_orderstatus VARCHAR(1), o_totalprice DOUBLE, o_orderdate DATE, o_orderpriority VARCHAR(15), PRIMARY KEY (o_orderkey))`, nil
	case "lineitem":
		return `CREATE TABLE lineitem (
			l_orderkey BIGINT, l_partkey INT, l_suppkey INT, l_linenumber INT,
			l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE, l_tax DOUBLE,
			l_returnflag VARCHAR(1), l_linestatus VARCHAR(1),
			l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE, l_shipmode VARCHAR(10),
			PRIMARY KEY (l_orderkey, l_linenumber))`, nil
	default:
		return "", fmt.Errorf("tpch: unknown table %q", table)
	}
}

// Counts returns the row counts for the generator's scale factor.
func (g *Generator) Counts() map[string]int {
	scale := func(n int) int {
		v := int(float64(n) * g.SF)
		if v < 1 {
			v = 1
		}
		return v
	}
	orders := scale(ordersPerSF)
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scale(suppliersPerSF),
		"customer": scale(customersPerSF),
		"part":     scale(partsPerSF),
		"orders":   orders,
		// lineitem rows are 1..7 per order (average 4); the exact number is
		// determined during generation, this is the expectation.
		"lineitem": orders * 4,
	}
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipmodes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var partTypes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var orderStatuses = []string{"O", "F", "P"}

// arena hands out a table's rows as windows of a few large blocks, so that
// generating n rows costs a handful of allocations rather than n.
type arena struct {
	block      []value.Value
	width, per int // values per row, rows per block
}

// add returns a row holding vals, which it copies.
func (a *arena) add(vals ...value.Value) []value.Value {
	if len(a.block) < a.width {
		a.block = make([]value.Value, a.width*a.per)
	}
	row := a.block[:a.width:a.width]
	a.block = a.block[a.width:]
	copy(row, vals)
	return row
}

// Rows generates the rows of one table.
func (g *Generator) Rows(table string) ([][]value.Value, error) {
	counts := g.Counts()
	rng := rand.New(rand.NewSource(g.Seed + int64(len(table))*7919))
	switch table {
	case "region":
		rows := make([][]value.Value, 5)
		for i := 0; i < 5; i++ {
			rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(regionNames[i])}
		}
		return rows, nil
	case "nation":
		rows := make([][]value.Value, 25)
		for i := 0; i < 25; i++ {
			rows[i] = []value.Value{
				value.NewInt(int64(i)),
				value.NewString(nationNames[i]),
				value.NewInt(int64(i % 5)),
			}
		}
		return rows, nil
	case "supplier":
		n := counts["supplier"]
		rows := make([][]value.Value, n)
		a := arena{width: 4, per: n}
		for i := 0; i < n; i++ {
			rows[i] = a.add(
				value.NewInt(int64(i+1)),
				value.NewString(fmt.Sprintf("Supplier#%09d", i+1)),
				value.NewInt(int64(rng.Intn(25))),
				value.NewFloat(float64(rng.Intn(999999))/100-999.99),
			)
		}
		return rows, nil
	case "customer":
		n := counts["customer"]
		rows := make([][]value.Value, n)
		a := arena{width: 5, per: n}
		for i := 0; i < n; i++ {
			rows[i] = a.add(
				value.NewInt(int64(i+1)),
				value.NewString(fmt.Sprintf("Customer#%09d", i+1)),
				value.NewInt(int64(rng.Intn(25))),
				value.NewFloat(float64(rng.Intn(999999))/100-999.99),
				value.NewString(segments[rng.Intn(len(segments))]),
			)
		}
		return rows, nil
	case "part":
		n := counts["part"]
		rows := make([][]value.Value, n)
		a := arena{width: 5, per: n}
		for i := 0; i < n; i++ {
			rows[i] = a.add(
				value.NewInt(int64(i+1)),
				value.NewString(fmt.Sprintf("part %d %s", i+1, partTypes[rng.Intn(len(partTypes))])),
				value.NewString(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
				value.NewString(partTypes[rng.Intn(len(partTypes))]),
				value.NewFloat(900+float64((i+1)%1000)/10),
			)
		}
		return rows, nil
	case "orders":
		n := counts["orders"]
		custs := counts["customer"]
		rows := make([][]value.Value, n)
		a := arena{width: 6, per: n}
		for i := 0; i < n; i++ {
			orderDate := startDate + int64(rng.Intn(int(endDate-startDate-121)))
			rows[i] = a.add(
				value.NewInt(orderKeyFor(i)),
				value.NewInt(int64(1+rng.Intn(custs))),
				value.NewString(orderStatuses[rng.Intn(len(orderStatuses))]),
				value.NewFloat(1000+float64(rng.Intn(450000))/10),
				value.NewDate(orderDate),
				value.NewString(priorities[rng.Intn(len(priorities))]),
			)
		}
		return rows, nil
	case "lineitem":
		return g.lineitemRows(rng, counts)
	default:
		return nil, fmt.Errorf("tpch: unknown table %q", table)
	}
}

// orderKeyFor mirrors TPC-H's sparse order keys (only 8 of every 32 keys are
// used); a simple bijection keeps keys increasing and deterministic.
func orderKeyFor(i int) int64 {
	group, offset := i/8, i%8
	return int64(group*32 + offset + 1)
}

func (g *Generator) lineitemRows(rng *rand.Rand, counts map[string]int) ([][]value.Value, error) {
	nOrders := counts["orders"]
	nSupp := counts["supplier"]
	nPart := counts["part"]
	// Order dates must match the orders table: regenerate them with the same
	// seed and sequence the orders generator used.
	orderRng := rand.New(rand.NewSource(g.Seed + int64(len("orders"))*7919))
	rows := make([][]value.Value, 0, nOrders*4)
	// A block per 1,024 orders: the line count is drawn as the rows are made.
	a := arena{width: 14, per: 4 * 1024}
	for i := 0; i < nOrders; i++ {
		orderDate := startDate + int64(orderRng.Intn(int(endDate-startDate-121)))
		// Consume the same random draws the orders generator makes after the date.
		orderRng.Intn(counts["customer"])
		orderRng.Intn(3)
		orderRng.Intn(450000)
		orderRng.Intn(len(priorities))
		lines := 1 + rng.Intn(7)
		for ln := 1; ln <= lines; ln++ {
			quantity := float64(1 + rng.Intn(50))
			price := float64(90000+rng.Intn(100000)) / 100
			shipDate := orderDate + int64(1+rng.Intn(121))
			commitDate := orderDate + int64(30+rng.Intn(61))
			receiptDate := shipDate + int64(1+rng.Intn(30))
			flag := "N"
			if receiptDate <= currentDate {
				if rng.Intn(2) == 0 {
					flag = "R"
				} else {
					flag = "A"
				}
			}
			status := "O"
			if shipDate <= currentDate {
				status = "F"
			}
			rows = append(rows, a.add(
				value.NewInt(orderKeyFor(i)),
				value.NewInt(int64(1+rng.Intn(nPart))),
				value.NewInt(int64(1+rng.Intn(nSupp))),
				value.NewInt(int64(ln)),
				value.NewFloat(quantity),
				value.NewFloat(price*quantity/10),
				value.NewFloat(float64(rng.Intn(11))/100),
				value.NewFloat(float64(rng.Intn(9))/100),
				value.NewString(flag),
				value.NewString(status),
				value.NewDate(shipDate),
				value.NewDate(commitDate),
				value.NewDate(receiptDate),
				value.NewString(shipmodes[rng.Intn(len(shipmodes))]),
			))
		}
	}
	return rows, nil
}

// Load creates one table and bulk-loads its generated rows into the engine.
func (g *Generator) Load(e *engine.Engine, table string) error {
	if _, err := DDL(table); err != nil {
		return err
	}
	rows, err := g.Rows(table)
	if err != nil {
		return err
	}
	return loadRows(e, table, rows)
}

// LoadAll creates and loads every TPC-H table.
func (g *Generator) LoadAll(e *engine.Engine) error {
	return g.load(e, TableNames())
}

// LoadCore creates and loads only the tables the paper's workload touches
// (customer, orders, lineitem), which keeps experiment set-up fast.
func (g *Generator) LoadCore(e *engine.Engine) error {
	return g.load(e, []string{"customer", "orders", "lineitem"})
}

// load creates and loads tables one after another, in order, so their pages
// come in that order, while their rows are generated ahead on other
// goroutines: each table's rows are independent of the others', so a table
// is generated while the ones before it load. Besides the table loading, at
// most the engine's parallelism of tables is generated and not yet loaded.
func (g *Generator) load(e *engine.Engine, tables []string) error {
	type generated struct {
		rows [][]value.Value
		err  error
		done chan struct{}
	}
	gens := make([]*generated, len(tables))
	for i := range gens {
		gens[i] = &generated{done: make(chan struct{})}
	}
	slots := make(chan struct{}, e.Parallelism()+1) // the table loading, and as many generating
	stop := make(chan struct{})
	go func() {
		for i, table := range tables {
			select {
			case slots <- struct{}{}:
			case <-stop:
				for _, gen := range gens[i:] {
					close(gen.done)
				}
				return
			}
			go func() {
				defer close(gens[i].done)
				gens[i].rows, gens[i].err = g.Rows(table)
			}()
		}
	}()
	var err error
	for i, table := range tables {
		<-gens[i].done
		if err = gens[i].err; err == nil {
			err = loadRows(e, table, gens[i].rows)
		}
		gens[i].rows = nil
		if err != nil {
			err = fmt.Errorf("tpch: loading %s: %w", table, err)
			close(stop)
			for _, gen := range gens[i+1:] {
				<-gen.done // no generator outlives the load
			}
			return err
		}
		<-slots
	}
	return nil
}

// loadRows creates one table and bulk-loads rows into it.
func loadRows(e *engine.Engine, table string, rows [][]value.Value) error {
	ddl, err := DDL(table)
	if err != nil {
		return err
	}
	if _, err := e.Execute(ddl); err != nil {
		return err
	}
	return e.BulkLoad(table, rows)
}
