package replay

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func testEstimator(t *testing.T) (*hypervisor.Host, *core.Estimator) {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "a", Type: 0}, {Name: "b", Type: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.Perfect(host.PowerSource())
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.New(host, m, core.Config{OfflineTicksPerCombo: 80, IdleMeasureTicks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	return host, est
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{Tick: 1, Coalition: 0b11, States: [][]float64{{1, 0.1, 0}, {0.5, 0.2, 0.1}}, Power: 160.5},
		{Tick: 2, Coalition: 0b01, States: [][]float64{{0.9, 0.1, 0}, {0, 0, 0}}, Power: 151},
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0].Tick != 1 || got[0].Power != 160.5 || got[1].Coalition != 0b01 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadSkipsBlankAndFailsCorrupt(t *testing.T) {
	input := `{"tick":1,"coalition":1,"states":[[1,0,0]],"power":151}

{"tick":2,"coalition":1,"states":[[0.5,0,0]],"power":145}
`
	recs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records", len(recs))
	}
	if _, err := Read(strings.NewReader("not json\n")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	rec := Record{Tick: 1, Coalition: 1, States: [][]float64{{1, 0, 0}}, Power: 150}
	if _, err := rec.Snapshot(2); err == nil {
		t.Fatal("want state-count error")
	}
	bad := Record{Tick: 1, Coalition: 1, States: [][]float64{{1, 0}}, Power: 150}
	if _, err := bad.Snapshot(1); err == nil {
		t.Fatal("want component-count error")
	}
	outOfRange := Record{Tick: 1, Coalition: 1, States: [][]float64{{2, 0, 0}}, Power: 150}
	if _, err := outOfRange.Snapshot(1); err == nil {
		t.Fatal("want state-range error")
	}
	snap, err := rec.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Running, []bool{true}) || snap.States[0][vm.CPU] != 1 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// Running member IDs rebuild the flags and must ascend in range.
	wide := Record{Tick: 1, States: [][]float64{{1, 0, 0}, {0, 0, 0}, {0.5, 0, 0}}, Power: 150}
	for _, bad := range [][]int{{3}, {-1}, {2, 0}, {0, 0}} {
		wide.Running = &bad
		if _, err := wide.Snapshot(3); err == nil {
			t.Fatalf("running IDs %v accepted", bad)
		}
	}
	ids := []int{0, 2}
	wide.Running = &ids
	if snap, err = wide.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	if len(snap.Running) != 3 || !snap.Running[0] || snap.Running[1] || !snap.Running[2] {
		t.Fatalf("running flags %v, want [true false true]", snap.Running)
	}
}

// recordTrace writes a short trace of a Xeon host with VMs of the given
// types, each on its own synthetic workload: every third VM from the
// second on stays stopped, VM 0 stops on the third tick, and on the last
// tick nothing runs. It returns the trace and the collected snapshots.
func recordTrace(t *testing.T, types []vm.TypeID, ticks int) ([]byte, []hypervisor.Snapshot) {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, len(types))
	for i, ty := range types {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%d", i), Type: ty}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	running := make([]bool, len(types))
	for i := range running {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		running[i] = i%3 != 1
	}
	if err := host.SetRunning(running); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var snaps []hypervisor.Snapshot
	for tick := 0; tick < ticks; tick++ {
		switch tick {
		case 2:
			if err := host.Stop(0); err != nil {
				t.Fatal(err)
			}
		case ticks - 1:
			host.SetAll(false)
		}
		host.Advance(1)
		p, err := host.TruePower()
		if err != nil {
			t.Fatal(err)
		}
		snap := host.Collect()
		if err := w.WriteSnapshot(snap, p); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snaps
}

// TestWriterBytesPinned pins the trace format byte for byte, so traces
// stay readable across builds: the SHA-256 of a 4-VM and of a 30-VM trace
// must not move. The narrow trace writes the coalition mask and no
// running list; the wide one writes a zero mask and the running IDs. Both
// read back into the recorded snapshots.
func TestWriterBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		types []vm.TypeID
		want  string
	}{
		{"narrow", []vm.TypeID{0, 1, 0, 1}, "55d6197b40f0075ee6d4d481886106ac76daf6d3aaa1dc86aa6db3b12a3c0975"},
		{"wide", make([]vm.TypeID, 30), "d730d0de3f09f4a8400f3fabf57dfb00d9960fbb095e71785e3982feeadf3daa"},
	} {
		trace, snaps := recordTrace(t, tc.types, 4)
		if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != tc.want {
			t.Fatalf("%s trace SHA-256 %s, want %s:\n%s", tc.name, got, tc.want, trace)
		}
		if wide := bytes.Contains(trace, []byte(`"running"`)); wide != (len(tc.types) > vm.MaxPlayers) {
			t.Fatalf("%s trace carries running lists: %v", tc.name, wide)
		}
		recs, err := Read(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			snap, err := rec.Snapshot(len(tc.types))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(snap.Running, snaps[i].Running) || !slices.Equal(snap.States, snaps[i].States) {
				t.Fatalf("%s tick %d: read back %+v, recorded %+v", tc.name, rec.Tick, snap, snaps[i])
			}
		}
	}
}

// TestSnapshotRefusesUnknownRunningSet pins the decode-time refusals: a
// narrow record that carries only its mask reads, but a wide record
// without running IDs and a mask naming a VM at or past the set have an
// unknown running set, and each error names the tick.
func TestSnapshotRefusesUnknownRunningSet(t *testing.T) {
	recs, err := Read(strings.NewReader(`{"tick":7,"coalition":5,"states":[[0.5,0,0],[0,0,0],[0.25,0,0]],"power":150}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := recs[0].Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Running, []bool{true, false, true}) {
		t.Fatalf("narrow record running flags %v, want [true false true]", snap.Running)
	}
	if _, err := recs[0].Snapshot(2); err == nil {
		t.Fatal("want state-count error")
	}
	past := Record{Tick: 8, Coalition: 0b1001, States: make([][]float64, 3), Power: 150}
	for i := range past.States {
		past.States[i] = []float64{0, 0, 0}
	}
	if _, err := past.Snapshot(3); err == nil || !strings.Contains(err.Error(), "tick 8") {
		t.Fatalf("mask naming VM 3 of 3: error %v", err)
	}
	const n = vm.MaxPlayers + 1
	wide := Record{Tick: 9, States: make([][]float64, n), Power: 150}
	for i := range wide.States {
		wide.States[i] = []float64{0, 0, 0}
	}
	if _, err := wide.Snapshot(n); err == nil || !strings.Contains(err.Error(), "tick 9") {
		t.Fatalf("wide record without running IDs: error %v", err)
	}
	ids := []int{}
	wide.Running = &ids
	if snap, err := wide.Snapshot(n); err != nil || slices.Contains(snap.Running, true) {
		t.Fatalf("wide record with an empty running list: %v, flags %v", err, snap.Running)
	}
}

// TestRecordThenReplayMatchesLive records a live run and re-estimates it
// offline: the replayed allocations must match the live ones exactly
// (the estimator is deterministic given states and power).
func TestRecordThenReplayMatchesLive(t *testing.T) {
	host, est := testEstimator(t)
	if err := host.Attach(0, workload.GCC(5)); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(1, workload.Omnetpp(6)); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.GrandCoalition(2))

	var buf bytes.Buffer
	w := NewWriter(&buf)
	var live [][]float64
	const ticks = 10
	for i := 0; i < ticks; i++ {
		host.Advance(1)
		snap := host.Collect()
		power, err := host.TruePower()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteSnapshot(snap, power); err != nil {
			t.Fatal(err)
		}
		alloc, err := est.Estimate(snap, power)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, alloc.PerVM)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != ticks {
		t.Fatalf("recorded %d ticks", len(recs))
	}
	idx := 0
	if err := Replay(est, recs, func(alloc *core.Allocation) bool {
		for i, p := range alloc.PerVM {
			if math.Abs(p-live[idx][i]) > 1e-9 {
				t.Fatalf("tick %d vm %d: replay %g vs live %g", idx, i, p, live[idx][i])
			}
		}
		idx++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if idx != ticks {
		t.Fatalf("replayed %d ticks", idx)
	}
}

// TestReplayWideHostMatchesLive records a 200-VM host, past the
// coalition mask, whose running VMs fall into three groups, then replays
// the trace: every replayed tick must be served by the live tick's tier
// with the same shares bit for bit, including ticks with stopped VMs and
// one with none running. Narrow records carry no running list.
func TestReplayWideHostMatchesLive(t *testing.T) {
	const n = 200
	mach, err := machine.New(machine.DenseProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, n)
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%03d", i)}
		if i%4 == 3 {
			vms[i].Type = 1
		}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.New(host, m, core.Config{OfflineTicksPerCombo: 20, IdleMeasureTicks: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	steady := workload.Constant("steady", vm.State{vm.CPU: 0.3, vm.Memory: 0.1, vm.DiskIO: 0.05})
	for i := 0; i < n; i++ {
		var g workload.Generator = steady
		if i%10 == 0 {
			g = workload.Synthetic{Seed: 7}
		}
		if err := host.Attach(vm.ID(i), g); err != nil {
			t.Fatal(err)
		}
	}
	running := make([]bool, n)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var live []*core.Allocation
	for tick := 0; tick < 8; tick++ {
		for i := range running {
			running[i] = tick != 6 && !(tick >= 3 && i%7 == 0)
		}
		if err := host.SetRunning(running); err != nil {
			t.Fatal(err)
		}
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if err := w.WriteSnapshot(host.Collect(), alloc.MeasuredPower); err != nil {
			t.Fatal(err)
		}
		live = append(live, alloc)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	if err := Replay(est, recs, func(got *core.Allocation) bool {
		want := live[idx]
		if got.Prov.Tier != want.Prov.Tier || (idx != 6 && want.Prov.Tier != core.TierExact) {
			t.Fatalf("tick %d: replay tier %s, live %s", idx, got.Prov.Tier, want.Prov.Tier)
		}
		for i, p := range want.PerVM {
			if math.Float64bits(got.PerVM[i]) != math.Float64bits(p) {
				t.Fatalf("tick %d VM %d: replay %.17g, live %.17g", idx, i, got.PerVM[i], p)
			}
		}
		idx++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if idx != len(live) {
		t.Fatalf("replayed %d of %d ticks", idx, len(live))
	}
	if recs[6].Running == nil || len(*recs[6].Running) != 0 || live[6].DynamicPower != 0 {
		t.Fatalf("the all-stopped tick recorded running %v and %g W dynamic", recs[6].Running, live[6].DynamicPower)
	}
}

// TestReplayWideSPECHostExact records a 30-VM dense host whose VMs run
// distinct SPEC traces: no coalition mask holds the set and its groups
// span more count vectors than the exact budget, but the correction
// search finishes under its node cap, so every tick is served exactly.
// Every replayed tick must be served the same way, bit for bit.
func TestReplayWideSPECHostExact(t *testing.T) {
	const n = 30
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	mach, err := machine.New(machine.DenseProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, n)
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%02d", i)}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.New(host, m, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := range vms {
		gen, err := workload.ByName(suite[i%len(suite)], int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			t.Fatal(err)
		}
	}
	host.SetAll(true)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var live []*core.Allocation
	for tick := 0; tick < 200; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		snap := host.Collect()
		counts := map[vm.State]int{}
		for _, st := range snap.States {
			counts[st]++
		}
		vectors := 1
		for _, c := range counts {
			vectors *= c + 1
		}
		if alloc.Prov.Tier != core.TierExact || vectors <= 1<<22 {
			t.Fatalf("tick %d: tier %s over %d count vectors", tick, alloc.Prov.Tier, vectors)
		}
		if err := w.WriteSnapshot(snap, alloc.MeasuredPower); err != nil {
			t.Fatal(err)
		}
		live = append(live, alloc)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	if err := Replay(est, recs, func(got *core.Allocation) bool {
		want := live[idx]
		if got.Prov.Tier != want.Prov.Tier {
			t.Fatalf("tick %d: replay tier %s, live %s", idx, got.Prov.Tier, want.Prov.Tier)
		}
		for i, p := range want.PerVM {
			if math.Float64bits(got.PerVM[i]) != math.Float64bits(p) {
				t.Fatalf("tick %d VM %d: replay %.17g, live %.17g", idx, i, got.PerVM[i], p)
			}
		}
		idx++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if idx != len(live) {
		t.Fatalf("replayed %d of %d ticks", idx, len(live))
	}
}

func TestReplayValidation(t *testing.T) {
	_, est := testEstimator(t)
	if err := Replay(nil, nil, nil); err == nil {
		t.Fatal("want nil-estimator error")
	}
	bad := []Record{{Tick: 1, Coalition: 1, States: [][]float64{{1, 0, 0}}, Power: 150}}
	if err := Replay(est, bad, nil); err == nil {
		t.Fatal("want state-count error (host has 2 VMs)")
	}
	// Early stop.
	good := []Record{
		{Tick: 1, Coalition: 0b11, States: [][]float64{{1, 0, 0}, {0.5, 0, 0}}, Power: 160},
		{Tick: 2, Coalition: 0b11, States: [][]float64{{1, 0, 0}, {0.5, 0, 0}}, Power: 160},
	}
	n := 0
	if err := Replay(est, good, func(*core.Allocation) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop after %d", n)
	}
}
