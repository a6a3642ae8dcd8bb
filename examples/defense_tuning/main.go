// defense_tuning explores the paper's central deployment question: how
// to pick the cut threshold CT (§3.7 / Figures 12-14). Small CT reacts
// fast but wrongly disconnects good peers; large CT spares good peers
// but lets borderline agents (high-degree or bandwidth-capped) escape.
// The paper recommends CT in [5, 7].
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"ddpolice"
)

func main() {
	scale := ddpolice.QuickScale()
	scale.NumPeers = 800
	scale.DurationSec = 600
	scale.TimelineAgents = 8
	scale.CutThresholds = []float64{1, 2, 3, 5, 7, 10, 15}

	rows, err := ddpolice.Fig13And14(scale)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CT\tgood peers wrongly cut\tagents missed\tfalse judgment\trecovery (min)\tstable damage (%)")
	bestCT, bestFJ := 0.0, 1<<30
	for _, r := range rows {
		ct := r.Config.Police.CutThreshold
		rec := fmt.Sprint(r.RecoveryMinutes())
		if r.RecoveryMinutes() < 0 {
			rec = "never"
		}
		fmt.Fprintf(w, "%g\t%d\t%d\t%d\t%s\t%.1f\n",
			ct, r.Result.FalseNegatives, r.Result.FalsePositives,
			r.FalseJudgment(), rec, r.StableDamage(0.2))
		if r.FalseJudgment() < bestFJ {
			bestFJ, bestCT = r.FalseJudgment(), ct
		}
	}
	w.Flush()
	fmt.Printf("\nlowest false judgment at CT = %g (the paper lands on CT in [5,7])\n", bestCT)

	// Show the Fig 12 dynamic at two contrasting thresholds.
	scale.TimelineCTs = []float64{3, 10}
	tl, err := ddpolice.Fig12(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndamage rate D(t) by minute:")
	for _, v := range tl {
		fmt.Printf("  %-14s", v.Label)
		for _, d := range v.Damage {
			fmt.Printf(" %5.1f", d)
		}
		fmt.Println()
	}
}
