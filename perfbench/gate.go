package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
)

// fingerprint is the part of a run's output the correctness gate compares.
// Each workload fills only the fields that its reference pins (see
// README.md, "Correctness gate"); the rest stay empty and are omitted.
type fingerprint struct {
	VirtualNS int64            `json:"virtual_ns,omitempty"`
	Reports   int              `json:"reports,omitempty"`
	RacyVars  []string         `json:"racy_vars"`
	RacyAddrs []uint64         `json:"racy_addrs,omitempty"`
	Detector  *race.Stats      `json:"detector,omitempty"`
	Messages  map[string]int64 `json:"messages,omitempty"`
	Bytes     map[string]int64 `json:"bytes,omitempty"`
	GoFront   *gofront.Stats   `json:"gofront,omitempty"`
}

func (f fingerprint) String() string {
	b, err := json.Marshal(f)
	if err != nil {
		return "unencodable fingerprint: " + err.Error()
	}
	return string(b)
}

// refEntry is one workload's committed reference.
type refEntry struct {
	// Fingerprint, when set, must equal the run's fingerprint exactly.
	Fingerprint *fingerprint `json:"fingerprint,omitempty"`
	// AllowedRacyVars, when set, must contain every racy variable the run
	// reports (a subset check for schedule-dependent workloads).
	AllowedRacyVars []string `json:"allowed_racy_vars,omitempty"`
	// Seeds holds exact per-seed fingerprints for seed-driven workloads.
	Seeds map[string]fingerprint `json:"seeds,omitempty"`
	// RacyVars is the racy-variable set a seed outside Seeds must report.
	RacyVars []string `json:"racy_vars,omitempty"`
}

// reference maps workload names to their committed references.
type reference map[string]refEntry

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// check applies the workload's gate to one run's fingerprint.
func (r reference) check(workload string, seed int64, fp fingerprint) error {
	e, ok := r[workload]
	if !ok {
		return fmt.Errorf("no reference for workload %q", workload)
	}
	switch {
	case e.Fingerprint != nil:
		if got, want := fp.String(), e.Fingerprint.String(); got != want {
			return fmt.Errorf("fingerprint mismatch:\n got  %s\n want %s", got, want)
		}
	case e.AllowedRacyVars != nil:
		allowed := make(map[string]bool)
		for _, v := range e.AllowedRacyVars {
			allowed[v] = true
		}
		if len(fp.RacyVars) == 0 {
			return fmt.Errorf("no races reported; want races on %v", e.AllowedRacyVars)
		}
		for _, v := range fp.RacyVars {
			if !allowed[v] {
				return fmt.Errorf("race on %q, outside the allowed set %v", v, e.AllowedRacyVars)
			}
		}
	case e.Seeds != nil:
		if want, ok := e.Seeds[strconv.FormatInt(seed, 10)]; ok {
			if got := fp.String(); got != want.String() {
				return fmt.Errorf("seed %d fingerprint mismatch:\n got  %s\n want %s", seed, got, want)
			}
			return nil
		}
		if got, want := fmt.Sprint(fp.RacyVars), fmt.Sprint(e.RacyVars); got != want {
			return fmt.Errorf("seed %d (no per-seed reference): racy variables %s, want %s", seed, got, want)
		}
	default:
		return fmt.Errorf("empty reference for workload %q", workload)
	}
	return nil
}

// dsmRacyVars maps reports to their shared-variable names, sorted and
// deduplicated.
func dsmRacyVars(sys *dsm.System, reports []race.Report) []string {
	set := make(map[string]bool)
	for _, rep := range reports {
		name := fmt.Sprintf("0x%x", uint64(rep.Addr))
		if sym, ok := sys.SymbolAt(rep.Addr); ok {
			name = sym.Name
		}
		set[name] = true
	}
	return sortedKeys(set)
}

// goRacyVars maps gofront reports to "name[i]" symbols, sorted.
func goRacyVars(res *gofront.Result) []string {
	set := make(map[string]bool)
	for _, rep := range res.Races {
		name := fmt.Sprintf("0x%x", uint64(rep.Addr))
		if sym, ok := res.SymbolAt(rep.Addr); ok {
			name = sym
		}
		set[name] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wireCounts returns the per-message-type counters under their type names,
// leaving out types that carried no traffic.
func wireCounts(counts [msg.NumTypes]int64) map[string]int64 {
	out := make(map[string]int64)
	for t, n := range counts {
		if n != 0 {
			out[msg.Type(t).String()] = n
		}
	}
	return out
}

func addrList(addrs []mem.Addr) []uint64 {
	out := make([]uint64, len(addrs))
	for i, a := range addrs {
		out[i] = uint64(a)
	}
	return out
}
