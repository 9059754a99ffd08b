package main

import (
	"fmt"
	"math/rand"
	"strings"

	"vmpower/internal/cliutil"
	"vmpower/internal/fleet"
)

// lifecyclePeriod is the length in ticks of one lifecycle cycle;
// lifecycleStart is the tick the first cycle begins.
const (
	lifecyclePeriod = 200
	lifecycleStart  = 10
)

// lifecycleProgram generates fleet32's scenario from the seed: one
// autoscale group over the small VMs, then a cycle every
// lifecyclePeriod ticks of power-off/on, live migration, hot-plug,
// removal and drain/undrain among the large VMs, repeated through the
// planned tick count.
//
// The large hosts are full, so every large move needs the one free slot
// ("hole") a removal opens. The generator follows the hole through each
// cycle with a model of the fleet's placement rules (a migration moves
// the VM to the end of the destination's list; a drain live-migrates
// its host's first VM into the hole and stops the rest in place), so no
// event it emits is refused.
//
// Every VM a host receives adds a player to its game for good (the slots
// of departed VMs stay as dummies), doubling that host's 2^n solve. A
// cycle brings three arrivals, so the period keeps a run's arrivals
// below the host count, and the generator steers each to a host that has
// had the fewest: every host grows by at most one player per 20 s run,
// whatever the seed. The seed picks among equal hosts and the VMs within
// them. hosts is the fleet's initial layout (fleet.States).
func lifecycleProgram(hosts []fleet.HostStatus, seed int64, ticks int) ([]cliutil.ScenarioEvent, error) {
	m := &lifecycleModel{rng: rand.New(rand.NewSource(seed)), hole: -1, host: map[string]int{}, arrivals: map[int]int{}}
	for _, hs := range hosts {
		m.vms = append(m.vms, append([]string(nil), hs.VMs...))
		if len(hs.VMs) > 0 && strings.HasPrefix(hs.VMs[0], "L") {
			m.large = append(m.large, hs.Host)
		}
		for _, name := range hs.VMs {
			m.host[name] = hs.Host
		}
	}
	if len(m.large) < 3 {
		return nil, fmt.Errorf("lifecycle: need 3 hosts of large VMs, fleet has %d", len(m.large))
	}
	m.emit("grp:%s@2:autoscale:1:%d", fleetGroup, fleetSmalls)
	m.remove(5)
	for c, t := 0, lifecycleStart; t+30 <= ticks; c, t = c+1, t+lifecyclePeriod {
		off := m.pickVM(m.large[m.rng.Intn(len(m.large))], "")
		m.emit("%s@%d:poweroff", off, t+1)
		m.migrate(t+2, off)
		m.emit("%s@%d:poweron", off, t+11)
		m.hotplug(t+12, c)
		m.remove(t + 13)
		d := m.drain(t + 20)
		m.emit("host:%d@%d:undrain", d, t+30)
	}
	return cliutil.ParseScenario(strings.Join(m.events, ","))
}

// lifecycleModel tracks live VMs per host, in the fleet's list order,
// the host with the free large slot (-1 when there is none), and how many
// VMs each host has received.
type lifecycleModel struct {
	rng      *rand.Rand
	vms      [][]string
	host     map[string]int
	large    []int
	hole     int
	arrivals map[int]int
	events   []string
}

// emit appends one event in the scenario DSL (subject@tick:kind[:args]).
func (m *lifecycleModel) emit(format string, args ...any) {
	m.events = append(m.events, fmt.Sprintf(format, args...))
}

// quietHost returns a random large host, other than not, among those
// that have received the fewest VMs.
func (m *lifecycleModel) quietHost(not int) int {
	var best []int
	for _, h := range m.large {
		switch {
		case h == not || len(m.vms[h]) == 0:
		case len(best) == 0 || m.arrivals[h] < m.arrivals[best[0]]:
			best = []int{h}
		case m.arrivals[h] == m.arrivals[best[0]]:
			best = append(best, h)
		}
	}
	return best[m.rng.Intn(len(best))]
}

// pickVM returns a random VM on host h other than not.
func (m *lifecycleModel) pickVM(h int, not string) string {
	for {
		if name := m.vms[h][m.rng.Intn(len(m.vms[h]))]; name != not || len(m.vms[h]) == 1 {
			return name
		}
	}
}

// move takes name off its host's list and, for to >= 0, appends it to
// host to's list as an arrival.
func (m *lifecycleModel) move(name string, to int) {
	from := m.host[name]
	for i, n := range m.vms[from] {
		if n == name {
			m.vms[from] = append(m.vms[from][:i], m.vms[from][i+1:]...)
			break
		}
	}
	delete(m.host, name)
	if to >= 0 {
		m.vms[to] = append(m.vms[to], name)
		m.host[name] = to
		m.arrivals[to]++
	}
}

// remove retires a VM of a quiet host; its slot becomes the hole.
func (m *lifecycleModel) remove(tick int) {
	h := m.quietHost(-1)
	name := m.pickVM(h, "")
	m.move(name, -1)
	m.hole = h
	m.emit("%s@%d:remove", name, tick)
}

// migrate live-migrates a VM (other than not) of a quiet host into the
// hole; the hole moves to that host.
func (m *lifecycleModel) migrate(tick int, not string) {
	from, to := m.quietHost(m.hole), m.hole
	name := m.pickVM(from, not)
	m.move(name, to)
	m.hole = from
	m.emit("%s@%d:migrate:%d:3", name, tick, to)
}

// hotplug fills the hole with a new large VM.
func (m *lifecycleModel) hotplug(tick, cycle int) {
	name := fmt.Sprintf("N%03d", cycle)
	m.emit("%s@%d:hotplug:%d:large:t%d:%s:%d",
		name, tick, m.hole, cycle%8, specSuite[cycle%len(specSuite)], m.rng.Int63n(1<<30))
	m.vms[m.hole] = append(m.vms[m.hole], name)
	m.host[name] = m.hole
	m.arrivals[m.hole]++
	m.hole = -1
}

// drain drains a quiet host d and returns it: d's first VM migrates into
// the hole, leaving the hole on d; the rest stop in place until the
// undrain restarts them.
func (m *lifecycleModel) drain(tick int) int {
	d := m.quietHost(m.hole)
	m.move(m.vms[d][0], m.hole)
	m.hole = d
	m.emit("host:%d@%d:drain:2", d, tick)
	return d
}
