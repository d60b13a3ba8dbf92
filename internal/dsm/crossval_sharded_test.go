package dsm

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/reliable"
	"lrcrace/internal/replay"
)

// Cross-validation of the sharded barrier race check (Config.ShardedCheck)
// against the serial check, which stays in the tree as the oracle: on the
// same program both modes must report the same races AND leave the detector
// in byte-identical persistent state (race.State feeds checkpoints, so any
// divergence would also poison recovery).

// newShardedSys mirrors newSys with the sharded check enabled.
func newShardedSys(t *testing.T, nproc int, proto ProtocolKind) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:     nproc,
		SharedSize:   16 * 1024,
		PageSize:     1024,
		Protocol:     proto,
		Detect:       true,
		ShardedCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedCheckRequiresDetect: config-layer gating.
func TestShardedCheckRequiresDetect(t *testing.T) {
	if _, err := New(Config{NumProcs: 2, SharedSize: 4096, ShardedCheck: true}); err == nil {
		t.Fatal("ShardedCheck without Detect accepted")
	}
}

// TestShardedPaperScenariosMatchSerial runs the channel-gated (fully
// deterministic) paper scenarios in both modes and demands exact equality:
// the report lists element-wise and the full detector state snapshot.
func TestShardedPaperScenariosMatchSerial(t *testing.T) {
	type outcome struct {
		races []race.Report
		det   race.State
	}
	capture := func(s *System, run func(*System) []race.Report) outcome {
		run(s)
		return outcome{races: s.Races(), det: s.DetectorState()}
	}
	check := func(t *testing.T, serial, sharded outcome) {
		t.Helper()
		if !reflect.DeepEqual(serial.races, sharded.races) {
			t.Errorf("race reports differ:\nserial:  %v\nsharded: %v", serial.races, sharded.races)
		}
		if !reflect.DeepEqual(serial.det, sharded.det) {
			t.Errorf("detector state differs:\nserial:  %+v\nsharded: %+v", serial.det, sharded.det)
		}
		if len(serial.races) == 0 {
			t.Error("scenario found no races; the comparison proves nothing")
		}
	}

	for _, tc := range []struct {
		name                   string
		p1SecondWrite, p2Write int
	}{
		{"figure2-same-word", 8, 8},
		{"figure2-false-sharing-plus-race", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := capture(newSys(t, 2, SingleWriter, true), func(s *System) []race.Report {
				return runFigure2(t, s, tc.p1SecondWrite, tc.p2Write)
			})
			sharded := capture(newShardedSys(t, 2, SingleWriter), func(s *System) []race.Report {
				return runFigure2(t, s, tc.p1SecondWrite, tc.p2Write)
			})
			check(t, serial, sharded)
		})
	}

	t.Run("figure5-queue", func(t *testing.T) {
		serial := capture(newSys(t, 3, SingleWriter, true), func(s *System) []race.Report {
			return runFigure5(t, s)
		})
		sharded := capture(newShardedSys(t, 3, SingleWriter), func(s *System) []race.Report {
			return runFigure5(t, s)
		})
		check(t, serial, sharded)
	})
}

// TestShardedRandomizedMatchesSerial replays crossval_test's randomized
// fixed-schedule workloads in both modes. The race set of a lock-using
// workload depends on the lock-grant order the managers happen to
// serialize, so the serial run records that order (§6.1 run 1) and the
// sharded run replays it under a sync Enforcer — making the two executions
// equivalent and the comparison exact: identical report lists and
// identical detector state.
func TestShardedRandomizedMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, proto := range []ProtocolKind{SingleWriter, MultiWriter} {
			r := rand.New(rand.NewSource(seed))
			nproc := 2 + r.Intn(5) // up to 6: interior tree nodes with two children
			nepoch := 1 + r.Intn(3)
			nwords := 24

			type op struct {
				word  int
				write bool
				lock  int
			}
			sched := make([][][]op, nepoch)
			for e := range sched {
				sched[e] = make([][]op, nproc)
				for p := range sched[e] {
					nops := r.Intn(5)
					for k := 0; k < nops; k++ {
						sched[e][p] = append(sched[e][p], op{
							word:  r.Intn(nwords),
							write: r.Intn(2) == 0,
							lock:  r.Intn(3) - 1,
						})
					}
				}
			}

			type outcome struct {
				races []race.Report
				det   race.State
			}
			runOne := func(sharded bool, rec SyncRecorder, enf SyncEnforcer) outcome {
				s, err := New(Config{
					NumProcs:     nproc,
					SharedSize:   4 * 1024,
					PageSize:     512,
					Protocol:     proto,
					Detect:       true,
					ShardedCheck: sharded,
					SyncRecorder: rec,
					SyncEnforcer: enf,
				})
				if err != nil {
					t.Fatal(err)
				}
				base, _ := s.AllocWords("words", nwords)
				err = s.Run(func(p *Proc) {
					for e := 0; e < nepoch; e++ {
						for _, o := range sched[e][p.ID()] {
							a := base + mem.Addr(o.word*8)
							if o.lock >= 0 {
								p.Lock(o.lock)
							}
							if o.write {
								p.Write(a, uint64(o.word))
							} else {
								p.Read(a)
							}
							if o.lock >= 0 {
								p.Unlock(o.lock)
							}
						}
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return outcome{races: s.Races(), det: s.DetectorState()}
			}

			rec := replay.NewSyncRecord()
			serial := runOne(false, rec, nil)
			sharded := runOne(true, nil, replay.NewEnforcer(rec))
			if !reflect.DeepEqual(serial.races, sharded.races) {
				t.Fatalf("seed %d proto %v nproc %d: reports differ:\nserial:  %v\nsharded: %v",
					seed, proto, nproc, serial.races, sharded.races)
			}
			if !reflect.DeepEqual(serial.det, sharded.det) {
				t.Fatalf("seed %d proto %v nproc %d: detector state differs:\nserial:  %+v\nsharded: %+v",
					seed, proto, nproc, serial.det, sharded.det)
			}
		}
	}
}

// shardedRecoverySys is recoverySys with the sharded check enabled: the
// crash grid below re-runs the recovery scenarios in sharded mode, so a
// crash that wedges a shard owner's collection round — including the victim
// dying between the release and its bitmap replies — must still be
// detected, rolled back, and replayed to the serial baseline's races.
func shardedRecoverySys(t *testing.T, nproc int, proto ProtocolKind, crash *CrashPlan) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:     nproc,
		SharedSize:   16 * 1024,
		PageSize:     1024,
		Protocol:     proto,
		Detect:       true,
		ShardedCheck: true,
		Reliable:     true,
		ReliableConfig: reliable.Config{
			RTO:        2 * time.Millisecond,
			MaxRTO:     50 * time.Millisecond,
			MaxRetries: 8,
		},
		BarrierWallTimeout: 2 * time.Second,
		Crashes:            plans(crash),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedCrashGridMatchesSerial: both recovery scenarios, with the
// victim sweep plus the mid-bitmap-round crash, run entirely in sharded
// mode; every recovered run must report exactly the races of the SERIAL
// crash-free baseline (two independent equalities in one: sharded == serial
// and recovered == crash-free).
func TestShardedCrashGridMatchesSerial(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := stableRaceKeys(sc.run(t, nil).Races()) // serial, crash-free
			if len(baseRaces) == 0 {
				t.Fatalf("crash-free %s run found no races; the grid would prove nothing", sc.name)
			}

			runSharded := func(t *testing.T, crash *CrashPlan) *System {
				t.Helper()
				s := shardedRecoverySys(t, 4, sc.proto, crash)
				factory := sc.setup(t, s)
				if err := s.RunEpochs(sc.epochs, factory); err != nil {
					t.Fatalf("%s (crash=%+v): %v", sc.name, crash, err)
				}
				return s
			}

			t.Run("crash-free", func(t *testing.T) {
				s := runSharded(t, nil)
				if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
					t.Errorf("sharded crash-free races = %v, want %v", got, baseRaces)
				}
				if rs := s.RecoveryStats(); rs.Recoveries != 0 {
					t.Errorf("crash-free sharded run performed %d recoveries", rs.Recoveries)
				}
			})

			plans := []*CrashPlan{
				{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				// The sharded-specific hazard: the victim dies between
				// receiving the release and sending its per-owner bitmap
				// replies, wedging every owner's collection round at
				// got=n-1 and the reduction tree above them.
				{Victim: 2, Epoch: 1, Point: CrashInBitmapRound},
				{Victim: 1, Epoch: 0, Point: CrashInBitmapRound},
			}
			for _, plan := range plans {
				plan := plan
				t.Run(plan.Point.String()+"-victim", func(t *testing.T) {
					s := runSharded(t, plan)
					if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
						t.Errorf("recovered sharded races = %v, want %v", got, baseRaces)
					}
					if rs := s.RecoveryStats(); rs.Recoveries == 0 {
						t.Error("crash plan armed but no recovery happened")
					}
				})
			}
		})
	}
}

// TestShardedWorkSpreadsAcrossProcs: the point of the tentpole — under the
// sharded check the comparison work must land on more than one process,
// and the per-proc counters must sum to the detector's global totals
// (so the telemetry split in internal/harness adds up).
func TestShardedWorkSpreadsAcrossProcs(t *testing.T) {
	run := func(sharded bool) *System {
		s, err := New(Config{
			NumProcs:     4,
			SharedSize:   16 * 1024,
			PageSize:     512,
			Protocol:     SingleWriter,
			Detect:       true,
			ShardedCheck: sharded,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Racy writes across many pages: a fat check list each epoch.
		base, _ := s.AllocWords("spread", 1024)
		err = s.Run(func(p *Proc) {
			for e := 0; e < 2; e++ {
				for w := 0; w < 64; w++ {
					p.Write(base+mem.Addr(((w*4+p.ID())*8)%(1024*8)), uint64(w))
				}
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, sharded := range []bool{false, true} {
		s := run(sharded)
		var sumEntries, sumBitmaps int64
		procsWithWork := 0
		for _, p := range s.Procs() {
			st := p.Stats()
			sumEntries += st.CheckEntriesCompared
			sumBitmaps += st.BitmapsCompared
			if st.CheckEntriesCompared > 0 {
				procsWithWork++
			}
		}
		det := s.DetectorStats()
		if sumBitmaps != int64(det.BitmapsCompared) {
			t.Errorf("sharded=%v: per-proc BitmapsCompared sums to %d, detector says %d",
				sharded, sumBitmaps, det.BitmapsCompared)
		}
		if sumEntries == 0 {
			t.Errorf("sharded=%v: no comparison work recorded at all", sharded)
		}
		if sharded && procsWithWork < 2 {
			t.Errorf("sharded check did all comparison work at %d proc(s); want it spread", procsWithWork)
		}
		if !sharded && procsWithWork != 1 {
			t.Errorf("serial check recorded comparison work at %d procs; want master only", procsWithWork)
		}
	}
}
