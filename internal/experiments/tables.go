package experiments

import (
	"fmt"
	"strings"

	"mumak/internal/bugs"
	"mumak/internal/taxonomy"
)

// renderTables writes tables.txt: Table 1 (tool classification against
// the §2 bug taxonomy), Table 3 (ergonomics) and the seeded bug registry
// behind the §6.2 study, all from static data, then the measured §6.5
// ergonomics rows at sc.
func renderTables(sc Scale) (string, error) {
	rows, err := Ergonomics(sc)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	printTable1(&sb)
	sb.WriteByte('\n')
	printTable3(&sb)
	sb.WriteByte('\n')
	printRegistry(&sb)
	sb.WriteByte('\n')
	printErgonomics(&sb, rows)
	return sb.String(), nil
}

func printTable1(sb *strings.Builder) {
	fmt.Fprintln(sb, "# Table 1: tool classification against the bug taxonomy")
	classes := taxonomy.Classes()
	fmt.Fprintf(sb, "%-12s", "tool")
	for _, c := range classes {
		fmt.Fprintf(sb, " %-16s", c)
	}
	fmt.Fprintf(sb, " %-10s %-10s\n", "app-agn.", "lib-agn.")
	for _, tool := range taxonomy.Table1 {
		fmt.Fprintf(sb, "%-12s", tool.Name)
		for _, c := range classes {
			fmt.Fprintf(sb, " %-16s", tool.Detects[c])
		}
		fmt.Fprintf(sb, " %-10s %-10s\n", check(tool.AppAgnostic), check(tool.LibAgnostic))
	}
}

func printTable3(sb *strings.Builder) {
	fmt.Fprintln(sb, "# Table 3: output and ease-of-use")
	fmt.Fprintf(sb, "%-12s %-14s %-14s %-18s %-16s %-14s\n",
		"tool", "complete path", "unique bugs", "generic workload", "changes target", "changes build")
	for _, row := range taxonomy.Table3 {
		fmt.Fprintf(sb, "%-12s %-14s %-14s %-18s %-16s %-14s\n",
			row.Name, yesNo(row.CompleteBugPath), yesNo(row.FiltersUnique),
			yesNo(row.GenericWorkload), yesNo(row.ChangesTarget), yesNo(row.ChangesBuild))
	}
}

func printRegistry(sb *strings.Builder) {
	fmt.Fprintln(sb, "# Seeded ground-truth bug registry (the §6.2 Witcher-list analogue)")
	c, p, fc, fp := bugs.Counts()
	fmt.Fprintf(sb, "%d correctness + %d performance bugs; Mumak expected to find %d + %d (%d%%)\n",
		c, p, fc, fp, 100*(fc+fp)/(c+p))
	perApp := map[string][2]int{}
	var order []string
	for _, b := range bugs.Registry {
		v, seen := perApp[b.App]
		if !seen {
			order = append(order, b.App)
		}
		if b.Correctness() {
			v[0]++
		} else {
			v[1]++
		}
		perApp[b.App] = v
	}
	for _, app := range order {
		v := perApp[app]
		fmt.Fprintf(sb, "  %-12s %2d correctness, %3d performance\n", app, v[0], v[1])
	}
	fmt.Fprintln(sb, strings.TrimSpace(`
Missed entries are ordering bugs whose exposing post-failure states do
not respect a program-order prefix (§4.1); Mumak warns about them via
the fence-ordering pattern instead of reporting bugs.`))
}

func check(b bool) string {
	if b {
		return "yes"
	}
	return ""
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func printErgonomics(sb *strings.Builder, rows []ErgRow) {
	sb.WriteString("# Measured ergonomics on one seeded defect (§6.5 / Table 3)\n")
	fmt.Fprintf(sb, "%-12s %10s %10s %12s %12s  %s\n",
		"tool", "raw", "unique", "with paths", "output (B)", "notes")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(sb, "%-12s %10s %10s %12s %12s  %s\n", r.Tool, "-", "-", "-", "-", r.Err)
			continue
		}
		fmt.Fprintf(sb, "%-12s %10d %10d %12d %12d\n",
			r.Tool, r.RawFindings, r.Unique, r.WithPaths, r.OutputBytes)
	}
}
