package experiment

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func init() {
	scenario.RegisterCustom("ablation-predecessor", ablationPredecessor)
}

// ablationPredecessor mounts a predecessor attack [Wright et al.] on
// the abstract protocol: compromised R_1 members log who handed them
// each fresh onion, and after observing a stream of messages from the
// same (unknown) source the adversary guesses that the most frequent
// predecessor is the source. The paper's path-anonymity metric is
// per-message; this experiment shows the longitudinal picture and how
// the spray augmentation (arbitrary relays injecting copies into R_1)
// dilutes the attack, at the cost of the lower per-message anonymity
// of Fig. 12.
func ablationPredecessor(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	const frac = 0.2
	messageCounts := []float64{1, 2, 5, 10, 20, 50, 100}
	var series []stats.Series
	for ci, tc := range []struct {
		label  string
		copies int
		spray  bool
	}{
		{"L=1 (single copy)", 1, false},
		{"L=3 strict", 3, false},
		{"L=3 spray", 3, true},
	} {
		cfg := core.DefaultConfig()
		cfg.Copies = tc.copies
		cfg.Spray = tc.spray
		cfg.Seed = opt.Seed
		cfg.ContactFailure = opt.FaultRate
		nw, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, nil, err
		}
		s := stats.Series{Name: tc.label}
		// Trials: independent adversaries, each observing a stream of
		// messages from a fixed source. Reuse one long routed stream
		// per trial and evaluate all message-count prefixes.
		trials := opt.Runs / 4
		if trials < 20 {
			trials = 20
		}
		maxMsgs := int(messageCounts[len(messageCounts)-1])
		// Each trial is one independent adversary observing one source's
		// message stream; trials run concurrently and report whether the
		// guess was correct at each message count in messageCounts.
		perTrial, err := scenario.Trials(e, fmt.Sprintf("%s/pred/c%d", sc.ID, ci), trials, func(trial int) ([]bool, error) {
			adv, err := adversary.RandomFraction(cfg.Nodes, frac, nw.Rand("predadv", trial))
			if err != nil {
				return nil, err
			}
			src := contact.NodeID(trial % cfg.Nodes)
			// Predecessor observation counts accumulated over the
			// stream.
			counts := map[contact.NodeID]int{}
			correct := make([]bool, len(messageCounts))
			msgIdx := 0
			for mi := 0; mi < maxMsgs; mi++ {
				res, err := nw.RouteFrom(src, trial*1000+mi, 1800)
				if err != nil {
					return nil, err
				}
				// Compromised receivers at stage >= 1 log their
				// predecessor; predecessors at position 0 are the
				// source or spray carriers.
				for _, c := range res.Copies {
					for vi := 1; vi < len(c.Visits); vi++ {
						v := c.Visits[vi]
						if v.Stage == 1 && adv.IsCompromised(v.Node) {
							counts[c.Visits[vi-1].Node]++
						}
					}
				}
				msgIdx++
				for ci, mc := range messageCounts {
					if int(mc) == msgIdx {
						correct[ci] = guessSource(counts) == src
					}
				}
			}
			return correct, nil
		})
		if err != nil {
			return nil, nil, err
		}
		correctAt := make([]int, len(messageCounts))
		for _, correct := range perTrial {
			for ci, ok := range correct {
				if ok {
					correctAt[ci]++
				}
			}
		}
		for ci, mc := range messageCounts {
			s.Append(mc, float64(correctAt[ci])/float64(trials), 0)
		}
		series = append(series, s)
	}
	notes := []string{
		fmt.Sprintf("%d independent adversary trials per line; adversary guesses the most frequent first-hop predecessor", opt.Runs/4),
	}
	return series, notes, nil
}

// guessSource returns the most frequently observed predecessor, with
// deterministic tie-breaking (lowest node ID); -1 if nothing observed.
func guessSource(counts map[contact.NodeID]int) contact.NodeID {
	best := contact.NodeID(-1)
	bestCount := 0
	for v, c := range counts {
		if c > bestCount || (c == bestCount && best >= 0 && v < best) {
			best = v
			bestCount = c
		}
	}
	return best
}
