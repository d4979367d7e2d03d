package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FormatFigure2 renders the Figure 2 measurements as one text panel per
// query: rows are parameter points (selectivity / constant), columns are the
// four strategies, cells are modeled total times (Measurement.Total).
func FormatFigure2(ms []Measurement) string {
	byQuery := make(map[QueryID][]Measurement)
	for _, m := range ms {
		byQuery[m.Query] = append(byQuery[m.Query], m)
	}
	var sb strings.Builder
	for _, q := range Queries() {
		group := byQuery[q]
		if len(group) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "Figure 2 — %s (times are modeled disk)\n", q)
		fmt.Fprintf(&sb, "%-14s", "selectivity")
		for _, s := range Strategies() {
			fmt.Fprintf(&sb, "%14s", s)
		}
		sb.WriteString("\n")
		points := uniqueSelectivities(group)
		for _, sel := range points {
			label := fmt.Sprintf("%.2f", sel)
			if sel == 0 {
				label = "(fixed)"
			}
			fmt.Fprintf(&sb, "%-14s", label)
			for _, s := range Strategies() {
				m, ok := find(group, s, sel)
				if !ok {
					fmt.Fprintf(&sb, "%14s", "-")
					continue
				}
				fmt.Fprintf(&sb, "%14s", formatDuration(m.Total))
			}
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func uniqueSelectivities(ms []Measurement) []float64 {
	seen := make(map[float64]bool)
	var out []float64
	for _, m := range ms {
		if !seen[m.Selectivity] {
			seen[m.Selectivity] = true
			out = append(out, m.Selectivity)
		}
	}
	sort.Float64s(out)
	return out
}

func find(ms []Measurement, s Strategy, sel float64) (Measurement, bool) {
	for _, m := range ms {
		if m.Strategy == s && m.Selectivity == sel {
			return m, true
		}
	}
	return Measurement{}, false
}

// FormatRatioTable renders a per-query ratio table in the style of the
// paper's summary tables.
func FormatRatioTable(title string, rows []RatioRow, invert bool) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-6s%14s%16s%16s\n", "query", "ratio", "strategy", "reference")
	for _, r := range rows {
		ratio := r.Ratio
		label := fmt.Sprintf("%.2fx", ratio)
		if invert && ratio != 0 {
			label = fmt.Sprintf("%.0fx faster", 1/ratio)
		}
		fmt.Fprintf(&sb, "%-6s%14s%16s%16s\n", r.Query, label,
			formatDuration(r.StrategyTime), formatDuration(r.ReferenceTime))
	}
	return sb.String()
}

// formatDuration renders a duration compactly with sensible units.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// RatioTable is one of the paper's three summary tables: a strategy's
// modeled time over ColOpt's, per query.
type RatioTable struct {
	Name     string // how cmd/elephantbench's -table flag names it
	Title    string
	Strategy Strategy
}

// RatioTables lists the paper's summary tables in the paper's order.
var RatioTables = []RatioTable{
	{"speedup", "Section 1 table — Row time / ColOpt time (ColOpt speedup over Row)", StrategyRow},
	{"mv", "Section 2.1 table — Row(MV) time / ColOpt time", StrategyRowMV},
	{"ctable", "Section 2.2.4 table — Row(Col) time / ColOpt time", StrategyRowCol},
}

// FormatTable measures one summary table and renders it.
func (h *Harness) FormatTable(t RatioTable) (string, error) {
	rows, err := h.RatioRows(t.Strategy)
	if err != nil {
		return "", err
	}
	return FormatRatioTable(t.Title, rows, false), nil
}

// Summary renders the headline comparison of the reproduction: the three
// tables of the paper in order.
func (h *Harness) Summary() (string, error) {
	texts := make([]string, len(RatioTables))
	for i, t := range RatioTables {
		text, err := h.FormatTable(t)
		if err != nil {
			return "", err
		}
		texts[i] = text
	}
	return strings.Join(texts, "\n"), nil
}
