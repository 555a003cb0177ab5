// Noiseloading reproduces the paper's §5 testbed trial with the
// discrete-event emulator: restoring 2.8 Tbps after a fiber cut takes
// ~17 minutes when every amplifier along the surrogate paths must re-settle
// its gain, and ~8 seconds when ASE noise sources keep the spectrum fully
// populated (Figs. 11-12).
//
// This example drives the internal emulator directly; see cmd/arrow-testbed
// for the full CLI.
//
//	go run ./examples/noiseloading
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/arrow-te/arrow/internal/emu"
)

func main() {
	for _, mode := range []struct {
		name  string
		noise bool
	}{
		{"legacy amplifier reconfiguration", false},
		{"ARROW ASE noise loading", true},
	} {
		tr, err := emu.TestbedTrial(context.Background(), emu.Config{NoiseLoading: mode.noise, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", mode.name)
		fmt.Printf("lost %.1f Tbps, restored %.1f Tbps in %.1f s (%d amplifiers settled)\n",
			tr.LostGbps/1000, tr.RestoredGbps/1000, tr.DoneSec, tr.AmpsSettled)

		// ASCII sparkline of restored capacity over time.
		fmt.Println(sparkline(tr))
		fmt.Println()
	}
	fmt.Println("replacing noise with data is local to the ROADMs, so the amplifiers")
	fmt.Println("never see a spectral power change — that is the entire trick of §4.")
}

// sparkline renders the restoration time series as a capacity bar chart.
func sparkline(tr *emu.Trial) string {
	const cols = 60
	var b strings.Builder
	b.WriteString("restored capacity over time:\n")
	levels := []rune(" .:-=+*#%@")
	step := len(tr.Series) / cols
	if step == 0 {
		step = 1
	}
	b.WriteString("  [")
	for i := 0; i < len(tr.Series); i += step {
		frac := tr.Series[i].RestoredGbps / 2800
		idx := int(frac * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	b.WriteString(fmt.Sprintf("] 0..%.0fs", tr.Series[len(tr.Series)-1].TimeSec))
	return b.String()
}
