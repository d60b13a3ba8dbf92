package harness

import (
	"math"
	"strings"
	"testing"
)

// TestValidateRunConfig pins the admission-time gate: every configuration
// Run would refuse mid-setup is refused here without building a System,
// and runnable configurations pass.
func TestValidateRunConfig(t *testing.T) {
	valid := []RunConfig{
		{App: "FFT", Scale: 0.25, Procs: 2, Detect: true},
		{App: "SOR", Scale: 0.25, Procs: 2},
		{App: "ChaosTSP", Procs: 4, Detect: true},
		{App: "ChaosMW", Procs: 4, CrashMode: "single", Detect: true},
		{App: "ChaosTSP", Procs: 4, CrashMode: "single", CorruptMode: "chunk"},
	}
	for _, cfg := range valid {
		if err := ValidateRunConfig(cfg); err != nil {
			t.Errorf("ValidateRunConfig(%+v) = %v, want nil", cfg, err)
		}
	}

	invalid := []struct {
		cfg  RunConfig
		want string // substring of the error
	}{
		{RunConfig{Procs: 2}, "no application"},
		{RunConfig{App: "FFT", Procs: 0}, "Procs"},
		{RunConfig{App: "FFT", Procs: 2, Scale: -1}, "Scale"},
		{RunConfig{App: "FFT", Procs: 2, Scale: math.NaN()}, "Scale"},
		{RunConfig{App: "FFT", Procs: 2, Scale: math.Inf(1)}, "Scale"},
		{RunConfig{App: "FFT", Procs: 2, Scale: math.Inf(-1)}, "Scale"},
		{RunConfig{App: "KV", Frontend: "go", Procs: 2, HotKeySkew: math.NaN()}, "HotKeySkew"},
		{RunConfig{App: "Nope", Procs: 2}, "unknown application"},
		{RunConfig{App: "FFT", Procs: 2, ShardedCheck: true}, "requires Detect"},
		{RunConfig{App: "FFT", Procs: 2, CrashMode: "single"}, "chaos app"},
		{RunConfig{App: "TSP", Procs: 2, CorruptMode: "chunk"}, "chaos app"},
		{RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "single", NoCheckpoint: true}, "checkpointing"},
		{RunConfig{App: "ChaosTSP", Procs: 4, CorruptMode: "chunk"}, "CrashMode"},
		{RunConfig{App: "ChaosMW", Procs: 2, CrashMode: "double"}, "procs"},
		{RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "thrice"}, "CrashMode"},
	}
	for _, tc := range invalid {
		err := ValidateRunConfig(tc.cfg)
		if err == nil {
			t.Errorf("ValidateRunConfig(%+v) = nil, want error containing %q", tc.cfg, tc.want)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("ValidateRunConfig(%+v) = %q, want substring %q", tc.cfg, err, tc.want)
		}
	}
}

// TestRunRejectsInvalidConfigEarly: Run itself goes through the same
// gate, so a doomed configuration fails before any System is built.
func TestRunRejectsInvalidConfigEarly(t *testing.T) {
	if _, err := Run(RunConfig{App: "FFT", Procs: 2, ShardedCheck: true}); err == nil {
		t.Error("Run accepted ShardedCheck without Detect")
	}
	if _, err := Run(RunConfig{App: "Nope", Procs: 2}); err == nil {
		t.Error("Run accepted an unknown application")
	}
}
