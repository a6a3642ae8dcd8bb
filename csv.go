package ddpolice

// CSV renderers for every experiment's output, so results can be
// plotted directly (cmd/ddexp -csv <dir> writes one file per figure).

import (
	"encoding/csv"
	"fmt"
	"io"

	"ddpolice/internal/capacity"
)

func writeAll(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return fmt.Sprintf("%g", v) }
func d(v int) string     { return fmt.Sprintf("%d", v) }
func u(v uint64) string  { return fmt.Sprintf("%d", v) }

// SaturationCSV renders the Figures 5-6 curve.
func SaturationCSV(w io.Writer, pts []capacity.SaturationPoint) error {
	rows := [][]string{{"offered_per_min", "processed_per_min", "drop_rate"}}
	for _, p := range pts {
		rows = append(rows, []string{f(p.OfferedPerMin), f(p.ProcessedPerMin), f(p.DropRate)})
	}
	return writeAll(w, rows)
}

// SweepCSV renders the Figures 9-11 sweep.
func SweepCSV(w io.Writer, pts []SweepPoint) error {
	rows := [][]string{{
		"agents",
		"traffic_baseline", "traffic_attack", "traffic_defended",
		"response_baseline", "response_attack", "response_defended",
		"success_baseline", "success_attack", "success_defended",
		"detections", "false_negatives", "false_positives",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			d(p.Agents),
			f(p.TrafficBaseline), f(p.TrafficAttack), f(p.TrafficDefended),
			f(p.ResponseBaseline), f(p.ResponseAttack), f(p.ResponseDefended),
			f(p.SuccessBaseline), f(p.SuccessAttack), f(p.SuccessDefended),
			d(p.Detections), d(p.FalseNegatives), d(p.FalsePositives),
		})
	}
	return writeAll(w, rows)
}

// TimelinesCSV renders the Figure 12 damage timelines (one column per
// variant, one row per minute).
func TimelinesCSV(w io.Writer, tl []Timeline) error {
	if len(tl) == 0 {
		return writeAll(w, [][]string{{"minute"}})
	}
	head := []string{"minute"}
	maxLen := 0
	for _, v := range tl {
		head = append(head, v.Label)
		if len(v.Damage) > maxLen {
			maxLen = len(v.Damage)
		}
	}
	rows := [][]string{head}
	for m := 0; m < maxLen; m++ {
		row := []string{d(m)}
		for _, v := range tl {
			if m < len(v.Damage) {
				row = append(row, f(v.Damage[m]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return writeAll(w, rows)
}

// CTPointsCSV renders the Figures 13-14 threshold sweep.
func CTPointsCSV(w io.Writer, pts []CTPoint) error {
	rows := [][]string{{
		"cut_threshold", "false_negatives", "false_positives",
		"false_judgment", "recovery_minutes", "stable_damage_pct",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			f(p.CutThreshold), d(p.FalseNegatives), d(p.FalsePositives),
			d(p.FalseJudgment), d(p.RecoveryMinutes), f(p.StableDamage),
		})
	}
	return writeAll(w, rows)
}

// FreqPointsCSV renders the §3.7.1 exchange-frequency study.
func FreqPointsCSV(w io.Writer, pts []FreqPoint) error {
	rows := [][]string{{
		"policy", "period_sec", "list_messages",
		"false_negatives", "false_positives", "recovery_minutes",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, f(p.PeriodSec), u(p.ListMessages),
			d(p.FalseNegatives), d(p.FalsePositives), d(p.RecoveryMinutes),
		})
	}
	return writeAll(w, rows)
}

// CheatPointsCSV renders the §3.4 cheating study.
func CheatPointsCSV(w io.Writer, pts []CheatPoint) error {
	rows := [][]string{{
		"strategy", "detections", "false_negatives", "false_positives", "success",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Strategy, d(p.Detections), d(p.FalseNegatives), d(p.FalsePositives), f(p.Success),
		})
	}
	return writeAll(w, rows)
}

// RadiusPointsCSV renders the DD-POLICE-r study.
func RadiusPointsCSV(w io.Writer, pts []RadiusPoint) error {
	rows := [][]string{{
		"radius", "detections", "false_negatives", "false_positives",
		"list_messages", "success", "recovery_minutes",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			d(p.Radius), d(p.Detections), d(p.FalseNegatives), d(p.FalsePositives),
			u(p.ListMessages), f(p.Success), d(p.RecoveryMinutes),
		})
	}
	return writeAll(w, rows)
}

// LiarPointsCSV renders the lying-peer study.
func LiarPointsCSV(w io.Writer, pts []LiarPoint) error {
	rows := [][]string{{"variant", "detections", "false_positives", "success", "verify_messages"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, d(p.Detections), d(p.FalsePositives), f(p.Success), u(p.VerifyMsgs),
		})
	}
	return writeAll(w, rows)
}

// AblationPointsCSV renders the modeling-decision ablations.
func AblationPointsCSV(w io.Writer, pts []AblationPoint) error {
	rows := [][]string{{
		"variant", "success_defended", "success_undefended",
		"detections", "false_negatives", "false_positives",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, f(p.Success), f(p.SuccessNoDef),
			d(p.Detections), d(p.FalseNegatives), d(p.FalsePositives),
		})
	}
	return writeAll(w, rows)
}

// BaselinePointsCSV renders the defense-strategy comparison.
func BaselinePointsCSV(w io.Writer, pts []BaselinePoint) error {
	rows := [][]string{{"strategy", "success", "response_s", "detections", "false_negatives"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, f(p.Success), f(p.Response), d(p.Detections), d(p.FalseNegatives),
		})
	}
	return writeAll(w, rows)
}

// BlacklistPointsCSV renders the blacklist extension study.
func BlacklistPointsCSV(w io.Writer, pts []BlacklistPoint) error {
	rows := [][]string{{"variant", "stable_damage_pct", "detections", "success"}}
	for _, p := range pts {
		rows = append(rows, []string{p.Label, f(p.StableDamage), d(p.Detections), f(p.Success)})
	}
	return writeAll(w, rows)
}

// StructuredPointsCSV renders the structured-vs-unstructured study.
func StructuredPointsCSV(w io.Writer, pts []StructuredPoint) error {
	rows := [][]string{{"agents", "unstructured_success", "structured_success", "structured_mean_hops"}}
	for _, p := range pts {
		rows = append(rows, []string{
			d(p.Agents), f(p.UnstructuredSuccess), f(p.StructuredSuccess), f(p.StructuredMeanHops),
		})
	}
	return writeAll(w, rows)
}

// DetectPointsCSV renders the per-suspect detection timelines
// reconstructed from the event journal.
func DetectPointsCSV(w io.Writer, pts []DetectPoint) error {
	rows := [][]string{{
		"suspect", "agent", "flood_start", "first_warning",
		"quorum_at", "cut_at", "latency_sec", "nt_reports", "nt_timeouts",
	}}
	for _, p := range pts {
		agent := "0"
		if p.Agent {
			agent = "1"
		}
		rows = append(rows, []string{
			d(p.Suspect), agent, f(p.FloodStart), f(p.FirstWarning),
			f(p.QuorumAt), f(p.CutAt), f(p.LatencySec), d(p.Reports), d(p.Timeouts),
		})
	}
	return writeAll(w, rows)
}

// DetectCDFCSV renders the detection-latency CDF.
func DetectCDFCSV(w io.Writer, rep *DetectReport) error {
	rows := [][]string{{"latency_sec", "fraction"}}
	for _, p := range rep.CDF {
		rows = append(rows, []string{f(p.LatencySec), f(p.Fraction)})
	}
	return writeAll(w, rows)
}

// DetectOverheadCSV renders the NT-overhead-per-cut summary row.
func DetectOverheadCSV(w io.Writer, rep *DetectReport) error {
	return writeAll(w, [][]string{
		{"nt_messages", "cuts", "nt_per_cut", "journal_events", "journal_dropped"},
		{u(rep.NTMessages), d(rep.Cuts), f(rep.NTPerCut), d(rep.Events), u(rep.Dropped)},
	})
}

// FaultPointsCSV renders the fault-plane loss x churn sweep.
func FaultPointsCSV(w io.Writer, pts []FaultPoint) error {
	rows := [][]string{{
		"control_loss", "churn", "detections",
		"false_negatives", "false_positives", "false_judgment", "success",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			f(p.ControlLoss), p.Churn, d(p.Detections),
			d(p.FalseNegatives), d(p.FalsePositives), d(p.FalseJudgment), f(p.Success),
		})
	}
	return writeAll(w, rows)
}

// OverloadPointsCSV renders the overload-resilience sweep: control
// delivery, query shedding and time-to-cut per offered-over-capacity
// factor, plane off vs on.
func OverloadPointsCSV(w io.Writer, pts []OverloadPoint) error {
	rows := [][]string{{
		"factor", "plane", "control_delivery", "query_shed_rate",
		"time_to_cut_sec", "detections", "degraded_transitions",
	}}
	for _, p := range pts {
		plane := "off"
		if p.Plane {
			plane = "on"
		}
		rows = append(rows, []string{
			f(p.Factor), plane, f(p.ControlDelivery), f(p.QueryShedRate),
			f(p.TimeToCutSec), d(p.Detections), d(p.Degraded),
		})
	}
	return writeAll(w, rows)
}
