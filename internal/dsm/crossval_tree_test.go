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

// Cross-validation of the combining-tree barrier (Config.BarrierTree)
// against the flat barrier, which stays in the tree as the oracle: the
// distributed check-list build partitions interval pairs across interior
// nodes (each cross-process pair compared at exactly one node, the LCA of
// its contributions), so on the same program both topologies must report
// the same races AND leave the detector in byte-identical persistent state.

// newTreeSys mirrors newSys with a combining tree of the given arity.
func newTreeSys(t *testing.T, nproc int, proto ProtocolKind, arity int) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:    nproc,
		SharedSize:  16 * 1024,
		PageSize:    1024,
		Protocol:    proto,
		Detect:      true,
		BarrierTree: arity,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBarrierTreeConfigValidation: arity 1 is a degenerate chain and
// negative arities are nonsense; both must be rejected at New.
func TestBarrierTreeConfigValidation(t *testing.T) {
	for _, k := range []int{1, -1, -7} {
		if _, err := New(Config{NumProcs: 2, SharedSize: 4096, BarrierTree: k}); err == nil {
			t.Errorf("BarrierTree=%d accepted; want arity ≥ 2 or 0", k)
		}
	}
	if _, err := New(Config{NumProcs: 2, SharedSize: 4096, BarrierTree: 2}); err != nil {
		t.Errorf("BarrierTree=2 rejected: %v", err)
	}
}

// TestTreeTopologyHelpers pins the shape functions the protocol and the
// blame logic both lean on: parent/children are mutually consistent and
// treeSubtree covers every proc exactly once across the root's children
// plus the root itself.
func TestTreeTopologyHelpers(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for n := 2; n <= 17; n++ {
			for p := 0; p < n; p++ {
				for _, c := range treeChildren(p, k, n) {
					if got := treeParent(c, k); got != p {
						t.Fatalf("k=%d n=%d: parent(child %d of %d) = %d", k, n, c, p, got)
					}
				}
			}
			seen := make([]bool, n)
			for _, q := range treeSubtree(0, k, n) {
				if seen[q] {
					t.Fatalf("k=%d n=%d: %d appears twice in root subtree", k, n, q)
				}
				seen[q] = true
			}
			for q, ok := range seen {
				if !ok {
					t.Fatalf("k=%d n=%d: proc %d missing from root subtree", k, n, q)
				}
			}
		}
	}
}

// TestTreePaperScenariosMatchSerial runs the channel-gated (fully
// deterministic) paper scenarios under flat and tree barriers and demands
// exact equality: the report lists element-wise and the full detector
// state snapshot.
func TestTreePaperScenariosMatchSerial(t *testing.T) {
	type outcome struct {
		races []race.Report
		det   race.State
	}
	capture := func(s *System, run func(*System) []race.Report) outcome {
		run(s)
		return outcome{races: s.Races(), det: s.DetectorState()}
	}
	check := func(t *testing.T, flat, tree outcome) {
		t.Helper()
		if !reflect.DeepEqual(flat.races, tree.races) {
			t.Errorf("race reports differ:\nflat: %v\ntree: %v", flat.races, tree.races)
		}
		if !reflect.DeepEqual(flat.det, tree.det) {
			t.Errorf("detector state differs:\nflat: %+v\ntree: %+v", flat.det, tree.det)
		}
		if len(flat.races) == 0 {
			t.Error("scenario found no races; the comparison proves nothing")
		}
	}

	for _, arity := range []int{2, 3} {
		for _, tc := range []struct {
			name                   string
			p1SecondWrite, p2Write int
		}{
			{"figure2-same-word", 8, 8},
			{"figure2-false-sharing-plus-race", 0, 0},
		} {
			t.Run(tc.name, func(t *testing.T) {
				flat := capture(newSys(t, 2, SingleWriter, true), func(s *System) []race.Report {
					return runFigure2(t, s, tc.p1SecondWrite, tc.p2Write)
				})
				tree := capture(newTreeSys(t, 2, SingleWriter, arity), func(s *System) []race.Report {
					return runFigure2(t, s, tc.p1SecondWrite, tc.p2Write)
				})
				check(t, flat, tree)
			})
		}

		t.Run("figure5-queue", func(t *testing.T) {
			flat := capture(newSys(t, 3, SingleWriter, true), func(s *System) []race.Report {
				return runFigure5(t, s)
			})
			tree := capture(newTreeSys(t, 3, SingleWriter, arity), func(s *System) []race.Report {
				return runFigure5(t, s)
			})
			check(t, flat, tree)
		})
	}
}

// TestTreeRandomizedMatchesSerial replays randomized fixed-schedule
// workloads under the flat barrier (recording the lock-grant order), then
// under the combining tree and under tree+sharded with a sync Enforcer
// replaying that order — making the executions equivalent and the
// comparison exact: identical report lists and identical detector state.
// Proc counts reach 9 so arity-2 trees are three hops deep (interior
// nodes that are themselves children of interior nodes).
func TestTreeRandomizedMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, proto := range []ProtocolKind{SingleWriter, MultiWriter} {
			for _, arity := range []int{2, 3, 4} {
				r := rand.New(rand.NewSource(seed*100 + int64(arity)))
				nproc := 2 + r.Intn(8) // up to 9: depth-3 arity-2 trees
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
				runOne := func(tree, sharded bool, rec SyncRecorder, enf SyncEnforcer) outcome {
					k := 0
					if tree {
						k = arity
					}
					s, err := New(Config{
						NumProcs:     nproc,
						SharedSize:   4 * 1024,
						PageSize:     512,
						Protocol:     proto,
						Detect:       true,
						BarrierTree:  k,
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
				flat := runOne(false, false, rec, nil)
				for _, mode := range []struct {
					name    string
					sharded bool
				}{{"tree", false}, {"tree+sharded", true}} {
					got := runOne(true, mode.sharded, nil, replay.NewEnforcer(rec))
					if !reflect.DeepEqual(flat.races, got.races) {
						t.Fatalf("seed %d proto %v arity %d nproc %d %s: reports differ:\nflat: %v\ngot:  %v",
							seed, proto, arity, nproc, mode.name, flat.races, got.races)
					}
					if !reflect.DeepEqual(flat.det, got.det) {
						t.Fatalf("seed %d proto %v arity %d nproc %d %s: detector state differs:\nflat: %+v\ngot:  %+v",
							seed, proto, arity, nproc, mode.name, flat.det, got.det)
					}
				}
			}
		}
	}
}

// treeRecoverySys is recoverySys with an arity-2 combining tree: at
// n=4 the topology is 0→{1,2}, 1→{3}, giving the crash grid both an
// interior node (p1, mid-reduction state of its own) and a grandchild
// leaf (p3, two hops from the root) to kill.
func treeRecoverySys(t *testing.T, nproc int, proto ProtocolKind, crash *CrashPlan) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:    nproc,
		SharedSize:  16 * 1024,
		PageSize:    1024,
		Protocol:    proto,
		Detect:      true,
		BarrierTree: 2,
		Reliable:    true,
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

// TestTreeCrashGridMatchesSerial kills each worker in turn under the
// arity-2 tree — including the interior node p1, whose death wedges its
// parent's reduction while its own child p3 sits arrived-but-unreleased —
// and demands that suspect naming converge on exactly the true victim
// (no survivor blamed for being wedged behind a deeper victim) and that
// the recovered run reproduce the crash-free serial baseline's races.
func TestTreeCrashGridMatchesSerial(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := stableRaceKeys(sc.run(t, nil).Races()) // flat, crash-free
			if len(baseRaces) == 0 {
				t.Fatalf("crash-free %s run found no races; the grid would prove nothing", sc.name)
			}

			runTree := func(t *testing.T, crash *CrashPlan) *System {
				t.Helper()
				s := treeRecoverySys(t, 4, sc.proto, crash)
				factory := sc.setup(t, s)
				if err := s.RunEpochs(sc.epochs, factory); err != nil {
					t.Fatalf("%s (crash=%+v): %v", sc.name, crash, err)
				}
				return s
			}

			t.Run("crash-free", func(t *testing.T) {
				s := runTree(t, nil)
				if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
					t.Errorf("tree crash-free races = %v, want %v", got, baseRaces)
				}
				if rs := s.RecoveryStats(); rs.Recoveries != 0 {
					t.Errorf("crash-free tree run performed %d recoveries", rs.Recoveries)
				}
			})

			plans := []*CrashPlan{
				// p1 is the interior node: its parent 0 misses the reduce,
				// its child 3 is arrived but never released.
				{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				// p2 is the root's other direct child.
				{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				// p3 is the grandchild leaf: the root sees p1 as the missing
				// contributor, and only p1's own verdict names the truth —
				// the multi-hop blame case.
				{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				// Death between the release cascade and the bitmap replies.
				{Victim: 2, Epoch: 1, Point: CrashInBitmapRound},
				// Epoch 0: no checkpoint yet, full restart under the tree.
				{Victim: 3, Epoch: 0, Point: CrashMidInterval, AfterN: 1},
			}
			for _, plan := range plans {
				plan := plan
				t.Run(plan.Point.String()+"-victim", func(t *testing.T) {
					s := runTree(t, plan)
					if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
						t.Errorf("recovered tree races = %v, want %v", got, baseRaces)
					}
					rs := s.RecoveryStats()
					if rs.Recoveries == 0 {
						t.Error("crash plan armed but no recovery happened")
					}
					if rs.LastVictim != plan.Victim {
						t.Errorf("recovery blamed p%d, victim was p%d (via %s)",
							rs.LastVictim, plan.Victim, rs.LastReason)
					}
				})
			}
		})
	}
}

// TestTreeWorkSpreadsAcrossProcs: the point of the distributed build —
// under the tree the check-list construction work (TIntervalCmp) must
// land on more than one process, while under the flat barrier it stays
// entirely at the master.
func TestTreeWorkSpreadsAcrossProcs(t *testing.T) {
	run := func(arity int) *System {
		s, err := New(Config{
			NumProcs:    4,
			SharedSize:  16 * 1024,
			PageSize:    512,
			Protocol:    SingleWriter,
			Detect:      true,
			BarrierTree: arity,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Racy writes across many pages: fat per-subtree check lists.
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

	for _, arity := range []int{0, 2} {
		s := run(arity)
		var total int64
		procsWithWork := 0
		for _, p := range s.Procs() {
			st := p.Stats()
			total += st.TIntervalCmp
			if st.TIntervalCmp > 0 {
				procsWithWork++
			}
		}
		if total == 0 {
			t.Errorf("arity=%d: no interval-comparison work recorded at all", arity)
		}
		if arity >= 2 && procsWithWork < 2 {
			t.Errorf("tree build did all comparison work at %d proc(s); want it spread", procsWithWork)
		}
		if arity == 0 && procsWithWork != 1 {
			t.Errorf("flat build recorded comparison work at %d procs; want master only", procsWithWork)
		}
	}
}

// TestTreeBlameNamesDeepVictim pins the two-hop blame unit: with p3 dead,
// barrierBlame at the interior node p1 must name p3 directly (got>0,
// missing exactly its own child), while the root — wedged missing p1's
// reduce — must NOT survive as the final verdict once p1 has proven
// itself alive by accusing. Covered end-to-end by the crash grid above;
// this test pins the per-node half so a blame regression fails with a
// readable message.
func TestTreeBlameNamesDeepVictim(t *testing.T) {
	s, err := New(Config{
		NumProcs:    4,
		SharedSize:  4 * 1024,
		PageSize:    1024,
		Detect:      true,
		BarrierTree: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Procs exist only once a program runs; a trivial one will do.
	if err := s.Run(func(p *Proc) { p.Barrier() }); err != nil {
		t.Fatal(err)
	}
	// Simulate the wedge by hand: p1 holds its own arrival but not p3's.
	p1 := s.Procs()[1]
	p1.mu.Lock()
	p1.tree.got = 1
	p1.tree.from[1] = true
	p1.mu.Unlock()
	suspect, detail := p1.barrierBlame("barrier release")
	if suspect != 3 {
		t.Errorf("interior blame = p%d, want p3 (detail %q)", suspect, detail)
	}

	// Root missing the whole left subtree cannot name one victim (both 1
	// and 3 are uncovered) but must say which procs never contributed.
	p0 := s.Procs()[0]
	p0.mu.Lock()
	p0.tree.got = 2
	p0.tree.from[0] = true
	p0.tree.from[2] = true
	p0.mu.Unlock()
	suspect, detail = p0.barrierBlame("barrier release")
	if suspect != 1 {
		t.Errorf("root blame = p%d, want its missing direct child p1", suspect)
	}
	if detail == "" {
		t.Error("root blame detail empty; want the uncovered procs listed")
	}

	// Verdict reconciliation: whichever order the two accusations land,
	// the surviving suspect is the deep victim p3.
	for _, order := range [][2][2]int{
		{{0, 1}, {1, 3}}, // root first, then interior
		{{1, 3}, {0, 1}}, // interior first, then root
	} {
		s.resetSuspectLocked()
		for _, acc := range order {
			s.noteTimeoutVerdict(acc[0], acc[1])
		}
		s.recMu.Lock()
		got := s.suspect
		s.recMu.Unlock()
		if got != 3 {
			t.Errorf("order %v: converged on p%d, want p3", order, got)
		}
	}
}
