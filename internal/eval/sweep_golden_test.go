package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
)

// TestSweepFastGolden pins the rows and notes of the three experiments that
// compare ARROW with the baseline schemes — fig13, table5 and fig16 in fast
// mode — at 1 and 2 workers, against testdata/sweep_fast.golden. A change
// that moves a cell on purpose (a baseline's start basis, a builder, the
// kernel's pivoting) regenerates the file and its diff is the record of the
// moved cells:
//
//	go test ./internal/eval -run TestSweepFastGolden -update
func TestSweepFastGolden(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs the fast availability sweep twice")
	}
	var renders []string
	for _, workers := range []int{1, 2} {
		// The memo is shared by every worker count; drop it so each count
		// computes its own sweep.
		ResetSweepCache()
		var b strings.Builder
		for _, id := range []string{"fig13", "table5", "fig16"} {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s is not registered", id)
			}
			r, err := e.Run(Config{Fast: true, Seed: 1, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", id, workers, err)
			}
			b.WriteString(RenderText(r))
		}
		renders = append(renders, b.String())
	}
	ResetSweepCache()
	if renders[0] != renders[1] {
		t.Fatalf("1 and 2 workers print different tables:\n%s\nvs\n%s", renders[0], renders[1])
	}
	golden := filepath.Join("testdata", "sweep_fast.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(renders[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if renders[0] != string(want) {
		t.Errorf("fig13/table5/fig16 drifted from %s (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s",
			golden, renders[0], want)
	}
}
