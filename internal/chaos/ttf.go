package chaos

import (
	"fmt"
	"math"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/ttf"
)

// replayTTF runs the op sequence through a fresh onrtc.Updater and sums
// the cost model's price of every diff — what a writer that applies
// exactly these ops in exactly this order must have accounted.
func replayTTF(routes []ip.Route, ups []tracegen.Update) (ttf.TTF, error) {
	upd := onrtc.BuildUpdater(trie.FromRoutes(routes))
	costs := ttf.DefaultCosts()
	var sum ttf.TTF
	for _, u := range ups {
		var diff onrtc.Diff
		switch u.Kind {
		case tracegen.Announce:
			diff = upd.Announce(u.Prefix, u.Hop)
		case tracegen.Withdraw:
			diff = upd.Withdraw(u.Prefix)
		default:
			return ttf.TTF{}, fmt.Errorf("ttf replay: unknown update kind %v", u.Kind)
		}
		sum = sum.Add(costs.CLUEBound(diff))
	}
	return sum, nil
}

// checkTTFReplay demands both the summed per-op TTFs the runtime
// returned and its own running totals equal replayTTF's over the
// identical op sequence.
func checkTTFReplay(routes []ip.Route, ups []tracegen.Update, returned, stats ttf.TTF) error {
	want, err := replayTTF(routes, ups)
	if err != nil {
		return err
	}
	for name, got := range map[string]ttf.TTF{"returned": returned, "stats": stats} {
		if !ttfClose(got, want) {
			return fmt.Errorf("%s TTF totals %+v != replay %+v", name, got, want)
		}
	}
	return nil
}

func ttfClose(a, b ttf.TTF) bool {
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-6*(1+math.Abs(y))
	}
	return near(a.Trie, b.Trie) && near(a.TCAM, b.TCAM) && near(a.DRed, b.DRed)
}
