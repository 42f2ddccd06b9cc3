package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// AV2 — availability with the loop closed. AV1 shows the stack riding
// through a scripted fault plan when an operator scripts the repair
// (the plan itself contains the rebuild line). AV2 asks the production
// question instead: the same faults with NO scripted repair, measured
// twice — once with the control plane's self-healing remediation off
// (the cluster stays degraded) and once with it on (health checks
// drive cordon → manager handoff → spare rebuild → uncordoned rejoin
// automatically). The gap between the two availability numbers is what
// the remediation loop buys. Pure virtual time, so both runs are
// byte-deterministic and golden-gated.

// RemediationStudyConfig shapes the AV2 study: the AV1 workload.
type RemediationStudyConfig = FaultStudyConfig

// DefaultRemediationStudyConfig mirrors the AV1 scale.
func DefaultRemediationStudyConfig() RemediationStudyConfig { return DefaultFaultStudyConfig() }

// RemediationRow is one AV2 measurement.
type RemediationRow struct {
	Scenario         string
	AvailabilityPct  float64 // minute buckets at ≥90% of healthy bandwidth
	DegradedMinutes  int     // minute buckets below the availability bar
	JobsCompleted    int
	JobsTotal        int
	MeanResponse     sim.Duration
	Rebuilds         int64 // remediate.rebuilds
	RemediateActions int64 // remediate.actions
	FaultsApplied    int
}

// av2Plan is the AV1 schedule with the scripted repair removed: the
// partition, the workstation crash window, the disk failure and the
// manager kill all still land, but nobody scripts the rebuild — either
// the remediator notices, or the stripe stays degraded to the end.
func av2Plan() faults.Plan {
	var kept []faults.Fault
	for _, f := range faultStudyPlan().Faults {
		if f.Kind != faults.Rebuild {
			kept = append(kept, f)
		}
	}
	return faults.Scripted("av2", kept...)
}

// RemediationStudy runs AV2: the unrepaired fault plan with the
// self-healing loop off, then on, and reports the availability each
// side achieves. Availability is the fraction of whole minutes in
// which the xFS read stream delivered at least 90% of its healthy-phase
// bandwidth — a throughput-SLO framing of "the cluster is usable".
func RemediationStudy(cfg RemediationStudyConfig) (Report, []RemediationRow, error) {
	rows := make([]RemediationRow, 0, 2)
	reg := map[string]*obs.Registry{}
	for _, sc := range []struct {
		name      string
		remediate bool
	}{
		{"remediate off", false},
		{"remediate on", true},
	} {
		arm, err := runAV(cfg, planPtr(av2Plan()), &sc.remediate)
		if err != nil {
			return Report{}, nil, fmt.Errorf("remediation study %s: %w", sc.name, err)
		}
		rows = append(rows, arm.remediationRow(sc.name))
		for k, r := range arm.regs {
			reg[sc.name+"/"+k] = r
		}
	}

	tbl := stats.NewTable("AV2 — availability with self-healing remediation off vs on",
		"Scenario", "Availability", "Degraded min", "Jobs done",
		"Mean response", "Rebuilds", "Actions", "Faults")
	for _, r := range rows {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%.1f%%", r.AvailabilityPct),
			fmt.Sprintf("%d", r.DegradedMinutes),
			fmt.Sprintf("%d/%d", r.JobsCompleted, r.JobsTotal),
			r.MeanResponse.String(),
			fmt.Sprintf("%d", r.Rebuilds),
			fmt.Sprintf("%d", r.RemediateActions),
			fmt.Sprintf("%d", r.FaultsApplied))
	}
	return Report{
		ID:    "AV2",
		Title: "Self-healing remediation closes the availability gap",
		Table: tbl,
		Notes: "AV1's fault plan minus the scripted rebuild; availability = minutes at ≥90% of healthy xFS bandwidth",
		Obs:   reg,
	}, rows, nil
}

// remediationRow reads one AV2 arm's row off its run.
func (arm avArm) remediationRow(name string) RemediationRow {
	row := RemediationRow{
		Scenario:      name,
		JobsCompleted: arm.mixed.JobsCompleted,
		JobsTotal:     arm.mixed.JobsTotal,
		MeanResponse:  arm.mixed.MeanResponse,
		FaultsApplied: arm.st.Injector.Applied(),
	}
	row.Rebuilds, _ = arm.st.Registry.CounterValue("remediate.rebuilds")
	row.RemediateActions, _ = arm.st.Registry.CounterValue("remediate.actions")

	// Availability: whole minutes at ≥90% of the healthy-phase mean.
	// Healthy = minutes 1..24 (warm, before the 1500s disk failure);
	// the measured span is every complete minute after warmup.
	buckets := arm.buckets
	healthyEnd := int(1500 * sim.Second / avBucket)
	var healthySum int64
	for i := 1; i < healthyEnd; i++ {
		healthySum += buckets[i]
	}
	healthyMean := float64(healthySum) / float64(healthyEnd-1)
	bar := 0.9 * healthyMean
	okMin, total := 0, 0
	for i := 1; i < len(buckets)-1; i++ {
		total++
		if float64(buckets[i]) >= bar {
			okMin++
		} else {
			row.DegradedMinutes++
		}
	}
	if total > 0 {
		row.AvailabilityPct = 100 * float64(okMin) / float64(total)
	}
	return row
}
