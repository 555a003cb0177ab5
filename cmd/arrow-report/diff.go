package main

import (
	"fmt"
	"io"
	"sort"

	"github.com/arrow-te/arrow/internal/session"
)

// timingCounters accumulate wall-clock, not work: schedule-dependent, never
// diffed.
var timingCounters = map[string]bool{
	"par.busy_ns": true,
	"par.idle_ns": true,
}

// runDiff prints every counter that differs between the metrics of two run
// bundles, a counter present in only one of them included, and returns how
// many differ. Counters are deterministic work counts, so two runs of the same
// code and settings must agree on every one of them; the wall-clock
// timingCounters are skipped.
func runDiff(w io.Writer, oldPath, newPath string) (int, error) {
	oldB, err := session.ReadFile(oldPath)
	if err != nil {
		return 0, err
	}
	newB, err := session.ReadFile(newPath)
	if err != nil {
		return 0, err
	}
	oldS, newS := oldB.Metrics, newB.Metrics
	keys := make([]string, 0, len(newS.Counters))
	for k := range newS.Counters {
		keys = append(keys, k)
	}
	for k := range oldS.Counters {
		if _, ok := newS.Counters[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	value := func(c map[string]int64, k string) string {
		if v, ok := c[k]; ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	differ := 0
	for _, k := range keys {
		o, n := value(oldS.Counters, k), value(newS.Counters, k)
		if o == n || timingCounters[k] {
			continue
		}
		fmt.Fprintf(w, "%-36s %12s -> %12s\n", k, o, n)
		differ++
	}
	fmt.Fprintf(w, "%d of %d counters differ (%s -> %s)\n", differ, len(keys), oldPath, newPath)
	return differ, nil
}
