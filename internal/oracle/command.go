package oracle

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"clue/internal/ip"
)

// Kind classifies a lifecycle command.
type Kind uint8

const (
	// CmdAnnounce announces Prefix with Hop.
	CmdAnnounce Kind = iota + 1
	// CmdWithdraw withdraws Prefix.
	CmdWithdraw
	// CmdLookup resolves Addrs[0] on every engine.
	CmdLookup
	// CmdBatch resolves Addrs as one batch (engines with a batch path
	// serve it in one call; the rest loop).
	CmdBatch
	// CmdFail takes serve worker Worker out of service.
	CmdFail
	// CmdRecover returns serve worker Worker to service.
	CmdRecover
	// CmdFlush flushes every redundancy cache (pipeline DRed groups
	// directly; the serve runtime has none and republishes instead).
	CmdFlush
	// CmdSwap forces a snapshot swap on engines that publish snapshots.
	CmdSwap
	// CmdQuiesce runs a full checkpoint: the whole probe set against
	// every engine plus all structural invariants.
	CmdQuiesce
	// CmdRebalance forces one load-aware repartitioning pass on engines
	// with a rebalancer (the serve runtime): a live cut move interleaved
	// with the rest of the lifecycle, which later lookups and checkpoints
	// must not be able to observe in any answer.
	CmdRebalance
)

// kindNames maps command kinds to their script keywords.
var kindNames = map[Kind]string{
	CmdAnnounce:  "announce",
	CmdWithdraw:  "withdraw",
	CmdLookup:    "lookup",
	CmdBatch:     "batch",
	CmdFail:      "fail",
	CmdRecover:   "recover",
	CmdFlush:     "flush",
	CmdSwap:      "swap",
	CmdQuiesce:   "quiesce",
	CmdRebalance: "rebalance",
}

// Command is one step of a lifecycle sequence. Unused fields are zero.
type Command struct {
	Kind   Kind
	Prefix ip.Prefix  // Announce, Withdraw
	Hop    ip.NextHop // Announce
	Addrs  []ip.Addr  // Lookup (one), Batch (several)
	Worker int        // Fail, Recover
}

// String renders the command in script form, one line without the
// trailing newline — the exact syntax ParseScript reads back.
func (c Command) String() string {
	switch c.Kind {
	case CmdAnnounce:
		return fmt.Sprintf("announce %s %d", c.Prefix, c.Hop)
	case CmdWithdraw:
		return fmt.Sprintf("withdraw %s", c.Prefix)
	case CmdLookup:
		return fmt.Sprintf("lookup %s", c.Addrs[0])
	case CmdBatch:
		parts := make([]string, len(c.Addrs))
		for i, a := range c.Addrs {
			parts[i] = a.String()
		}
		return "batch " + strings.Join(parts, " ")
	case CmdFail:
		return fmt.Sprintf("fail %d", c.Worker)
	case CmdRecover:
		return fmt.Sprintf("recover %d", c.Worker)
	case CmdFlush, CmdSwap, CmdQuiesce, CmdRebalance:
		return kindNames[c.Kind]
	}
	return fmt.Sprintf("Command(%d)", c.Kind)
}

// FormatScript renders a command sequence as a replayable script: one
// directive line carrying the replay configuration, then one command
// per line. Lines starting with '#' are comments.
func FormatScript(w io.Writer, cfg Config, cmds []Command) error {
	if _, err := fmt.Fprintf(w, "#! seed %d routes %d workers %d\n", cfg.Seed, cfg.BaseRoutes, cfg.Workers); err != nil {
		return err
	}
	for _, c := range cmds {
		if _, err := fmt.Fprintln(w, c.String()); err != nil {
			return err
		}
	}
	return nil
}

// ParseScript reads a script produced by FormatScript (or written by
// hand). The returned Config carries the directive line's replay
// parameters over defaults; plain '#' comments and blank lines are
// skipped.
func ParseScript(r io.Reader) (Config, []Command, error) {
	var (
		cfg  Config
		cmds []Command
	)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(text, "#!") {
			if err := parseDirective(strings.TrimPrefix(text, "#!"), &cfg); err != nil {
				return cfg, nil, fmt.Errorf("oracle: line %d: %w", line, err)
			}
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cmd, err := parseCommand(text)
		if err != nil {
			return cfg, nil, fmt.Errorf("oracle: line %d: %w", line, err)
		}
		cmds = append(cmds, cmd)
	}
	if err := sc.Err(); err != nil {
		return cfg, nil, err
	}
	return cfg, cmds, nil
}

// parseDirective reads "seed N routes N workers N" key-value pairs.
func parseDirective(s string, cfg *Config) error {
	fields := strings.Fields(s)
	if len(fields)%2 != 0 {
		return fmt.Errorf("directive %q: want key value pairs", s)
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i+1], 10, 64)
		if err != nil {
			return fmt.Errorf("directive %q: %w", s, err)
		}
		switch fields[i] {
		case "seed":
			cfg.Seed = v
		case "routes":
			cfg.BaseRoutes = int(v)
		case "workers":
			cfg.Workers = int(v)
		default:
			return fmt.Errorf("directive %q: unknown key %q", s, fields[i])
		}
	}
	return nil
}

// parseCommand reads one script line back into a Command.
func parseCommand(text string) (Command, error) {
	fields := strings.Fields(text)
	word := fields[0]
	args := fields[1:]
	argErr := func(want string) (Command, error) {
		return Command{}, fmt.Errorf("%s: want %q, got %q", word, want, text)
	}
	switch word {
	case "announce":
		if len(args) != 2 {
			return argErr("announce prefix hop")
		}
		p, err := ip.ParsePrefix(args[0])
		if err != nil {
			return Command{}, err
		}
		hop, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil || hop == 0 {
			return Command{}, fmt.Errorf("announce: bad hop %q", args[1])
		}
		return Command{Kind: CmdAnnounce, Prefix: p, Hop: ip.NextHop(hop)}, nil
	case "withdraw":
		if len(args) != 1 {
			return argErr("withdraw prefix")
		}
		p, err := ip.ParsePrefix(args[0])
		if err != nil {
			return Command{}, err
		}
		return Command{Kind: CmdWithdraw, Prefix: p}, nil
	case "lookup", "batch":
		if len(args) < 1 {
			return argErr(word + " addr...")
		}
		if word == "lookup" && len(args) != 1 {
			return argErr("lookup addr")
		}
		addrs := make([]ip.Addr, len(args))
		for i, s := range args {
			a, err := ip.ParseAddr(s)
			if err != nil {
				return Command{}, err
			}
			addrs[i] = a
		}
		kind := CmdLookup
		if word == "batch" {
			kind = CmdBatch
		}
		return Command{Kind: kind, Addrs: addrs}, nil
	case "fail", "recover":
		if len(args) != 1 {
			return argErr(word + " worker")
		}
		w, err := strconv.Atoi(args[0])
		if err != nil || w < 0 {
			return Command{}, fmt.Errorf("%s: bad worker %q", word, args[0])
		}
		kind := CmdFail
		if word == "recover" {
			kind = CmdRecover
		}
		return Command{Kind: kind, Worker: w}, nil
	case "flush":
		return Command{Kind: CmdFlush}, nil
	case "swap":
		return Command{Kind: CmdSwap}, nil
	case "quiesce":
		return Command{Kind: CmdQuiesce}, nil
	case "rebalance":
		return Command{Kind: CmdRebalance}, nil
	}
	return Command{}, fmt.Errorf("unknown command %q", word)
}
