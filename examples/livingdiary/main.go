// Livingdiary: §4.4-4.5's management story. The experiment's devices are
// never *maintained*, but failures are documented, diagnosed, and
// replaced, and every intervention — gateway swaps, device replacements,
// missed domain renewals — lands in a public maintenance diary. This
// example runs 50 years with the living-study rules on and prints the
// diary a future operator would inherit.
package main

import (
	"fmt"
	"sort"

	"centuryscale"
)

func main() {
	cfg := centuryscale.DefaultExperiment(centuryscale.OwnedWPAN)
	cfg.Seed = 11
	cfg.NumDevices = 16
	cfg.ReportInterval = 2 * centuryscale.Day
	cfg.ReplaceFailedDevices = true
	cfg.DeviceReplaceLag = 45 * centuryscale.Day
	cfg.MissLeaseRenewals = []int{2} // someone forgets the year-30 renewal
	cfg.LeaseLapse = 60 * centuryscale.Day

	out := centuryscale.RunExperiment(cfg)

	fmt.Println("the 50-year experiment, living-study rules (§4.4)")
	fmt.Printf("  weekly uptime:        %.2f%%\n", out.WeeklyUptime*100)
	fmt.Printf("  device replacements:  %d (each documented below)\n", out.DeviceReplacements)
	fmt.Printf("  gateway replacements: %d\n", out.GatewayReplaced)
	fmt.Printf("  devices alive at 50y: %d of %d slots\n", out.DevicesAliveAtEnd, cfg.NumDevices)
	fmt.Printf("  total spend:          %v\n", out.Ledger.Total())
	fmt.Println()

	fmt.Println("maintenance diary (the public experimental record, §4.5):")
	shown := 0
	for _, e := range out.Diary {
		fmt.Printf("  year %5.1f  %s\n", centuryscale.ToYears(e.At), e.What)
		shown++
		if shown == 25 && len(out.Diary) > 30 {
			fmt.Printf("  ... %d further entries ...\n", len(out.Diary)-shown)
			break
		}
	}
	fmt.Println()
	fmt.Println("Cost by category:")
	byCat := out.Ledger.ByCategory()
	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats) // a map ranges in a new order every run
	for _, cat := range cats {
		fmt.Printf("  %-18s %v\n", cat, byCat[cat])
	}
	fmt.Println()
	fmt.Println("The diary is the deliverable: \"the nature of a 50-year experiment is such")
	fmt.Println("that those who start it will most likely be retired by the time it is")
	fmt.Println("complete\" — the record is what crosses the generations.")
}
