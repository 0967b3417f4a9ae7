package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Reproducer is the shrunk failing run clue-chaos and the weekly soak
// write next to a failed program: Run(Options) replays it.
type Reproducer struct {
	Options Options `json:"options"`
	Error   string  `json:"error"`
	Report  Report  `json:"report"`
	// Shrunk reports whether the options are smaller than the original
	// failing run (the original always reproduces too).
	Shrunk bool `json:"shrunk"`
}

// writeReproducer shrinks the failing options (halving the FIB and the
// storm while the failure persists, a few rounds at most) and writes a
// replayable JSON reproducer into o.ReproDir.
func writeReproducer(o Options, rep Report, runErr error) {
	small := o
	small.ReproDir, small.Log = "", nil // no recursive artifacts
	small.Lookers = 1                   // the failure classes the shrinker chases are traffic-independent
	repro := Reproducer{Options: small, Error: runErr.Error(), Report: rep}
	for round := 1; round <= 4 && small.Routes >= 1200; round++ {
		cand := small
		cand.Routes /= 2
		cand.StormOps /= 2
		candRep, candErr := generateAndRun(cand)
		if candErr == nil || candRep.Ops == 0 {
			// Passing, or too small to generate: the last failure stands.
			break
		}
		small = cand
		repro = Reproducer{Options: small, Error: candErr.Error(), Report: candRep, Shrunk: true}
		o.logf("scenario %s: shrink round %d still fails at routes=%d", o.Scenario, round, cand.Routes)
	}
	buf, err := json.MarshalIndent(repro, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(o.ReproDir, 0o755); err != nil {
		return
	}
	path := filepath.Join(o.ReproDir, fmt.Sprintf("scenario-%s-seed%d.json", o.Scenario, o.Seed))
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return
	}
	o.logf("scenario %s: reproducer written to %s", o.Scenario, path)
}
