package harness

import (
	"fmt"
	"math"
	"strings"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
)

// ValidateRunConfig checks a configuration without running it: every
// rejection Run (or the dsm.Config it builds) would raise mid-setup is
// raised here, up front. It is the admission-time gate of the detection
// service — a request that fails ValidateRunConfig can never run, so the
// service refuses it with a typed 4xx instead of burning a pool slot on a
// doomed System — and Run itself calls it first, so the two can never
// disagree about what is runnable.
func ValidateRunConfig(cfg RunConfig) error {
	if cfg.App == "" {
		return fmt.Errorf("harness: no application named")
	}
	if cfg.Procs < 1 {
		return fmt.Errorf("harness: Procs = %d (want >= 1)", cfg.Procs)
	}
	// Written as !(x >= 0) so that NaN, which fails every comparison, is
	// rejected too.
	if !(cfg.Scale >= 0) || math.IsInf(cfg.Scale, 1) {
		return fmt.Errorf("harness: Scale = %g (want a finite value >= 0)", cfg.Scale)
	}
	if !KnownFrontend(cfg.Frontend) {
		return fmt.Errorf("harness: unknown frontend %q (have %s)", cfg.Frontend, strings.Join(Frontends, ", "))
	}
	if IsGoFrontend(cfg.Frontend) {
		return validateGoFront(cfg)
	}
	if cfg.HotKeySkew != 0 || cfg.Racy || cfg.OpsPerClient != 0 {
		return fmt.Errorf("harness: HotKeySkew, Racy, and OpsPerClient parameterize go-frontend workloads; set Frontend to \"go\"")
	}
	if cfg.ShardedCheck && !cfg.Detect {
		return fmt.Errorf("harness: ShardedCheck distributes the race check and so requires Detect")
	}
	if cfg.BarrierTree == 1 || cfg.BarrierTree < 0 {
		return fmt.Errorf("harness: BarrierTree = %d: the combining tree needs arity >= 2 (0 = flat barrier)", cfg.BarrierTree)
	}
	if cfg.Faults != nil && !cfg.Reliable &&
		(cfg.Faults.Drop > 0 || cfg.Faults.Dup > 0 || cfg.Faults.Reorder > 0) {
		return fmt.Errorf("harness: lossy fault plan requires the Reliable sublayer")
	}
	if IsChaosApp(cfg.App) {
		if chaosMode(cfg.CrashMode) != "none" && cfg.NoCheckpoint {
			return fmt.Errorf("harness: CrashMode %q requires checkpointing: with NoCheckpoint there is nothing to roll back to", cfg.CrashMode)
		}
		epochs := int32(cfg.Epochs)
		if epochs == 0 {
			epochs = chaosDefaultEpochs
		}
		// chaosPlans is the single source of truth for crash/corruption
		// mode rules; a dry derivation validates without side effects.
		if _, _, err := chaosPlans(cfg, cfg.Procs, epochs); err != nil {
			return err
		}
		return nil
	}
	if chaosMode(cfg.CrashMode) != "none" || chaosMode(cfg.CorruptMode) != "none" {
		return fmt.Errorf("harness: %s is a whole-program benchmark and cannot recover; crash/corruption modes need a chaos app (%s)", cfg.App, chaosAppNames())
	}
	for _, n := range apps.Names() {
		if n == cfg.App {
			return nil
		}
	}
	return fmt.Errorf("harness: unknown application %q (have %s and chaos apps %s)",
		cfg.App, strings.Join(apps.Names(), ", "), chaosAppNames())
}

// validateGoFront gates the go-frontend configurations: the app must be a
// registered gofront workload, the workload knobs must be in range, and
// every DSM-only mechanism must be off — the gofront engine has no pages,
// wire, barrier tree, or checkpoint store to configure.
func validateGoFront(cfg RunConfig) error {
	if !gofront.IsWorkload(cfg.App) {
		return fmt.Errorf("harness: unknown go-frontend workload %q (have %s)",
			cfg.App, strings.Join(gofront.Workloads(), ", "))
	}
	if !(cfg.HotKeySkew >= 0 && cfg.HotKeySkew < 1) {
		return fmt.Errorf("harness: HotKeySkew = %g (want [0,1))", cfg.HotKeySkew)
	}
	if cfg.OpsPerClient < 0 {
		return fmt.Errorf("harness: negative OpsPerClient %d", cfg.OpsPerClient)
	}
	switch {
	case cfg.Protocol != dsm.SingleWriter:
		return fmt.Errorf("harness: the go frontend has no coherence protocol; leave Protocol at its default")
	case cfg.ShardedCheck:
		return fmt.Errorf("harness: ShardedCheck is a DSM barrier mechanism; the go frontend checks at sync points")
	case cfg.BarrierTree != 0:
		return fmt.Errorf("harness: BarrierTree is a DSM barrier mechanism; the go frontend has no barriers")
	case cfg.FirstOnly, cfg.PageBitmapOverlap, cfg.WritesFromDiffs:
		return fmt.Errorf("harness: FirstOnly/PageBitmapOverlap/WritesFromDiffs tune the DSM detector, not the go frontend")
	case cfg.Faults != nil, cfg.Reliable:
		return fmt.Errorf("harness: the go frontend has no wire to fault or retransmit")
	case chaosMode(cfg.CrashMode) != "none", chaosMode(cfg.CorruptMode) != "none":
		return fmt.Errorf("harness: crash/corruption modes need a DSM chaos app, not a go-frontend workload")
	}
	return nil
}
