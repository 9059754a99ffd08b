package vhc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"vmpower/internal/vm"
)

// This file implements the paper's Sec. VIII "applicable scenario" future
// work: when VMs are configured with arbitrary hardware resources the
// number of VM types explodes and the 2^r VHC traversal becomes
// infeasible. ClusterTypes compresses an arbitrary type catalog into a
// small number of classes by k-means over normalized resource vectors;
// the resulting ClassMap plugs into ClassedFeatures so the VHC machinery
// runs over classes instead of raw types.

// ClassMap maps every vm.TypeID (by index) to a class in [0, Classes).
type ClassMap struct {
	// ByType[t] is the class of type t.
	ByType []int
	// Classes is the number of classes.
	Classes int
	// Centroids are the class centres in normalized (vCPU, memGB,
	// diskGB) space, for inspection.
	Centroids [][3]float64
}

// Validate checks the map is well-formed.
func (m *ClassMap) Validate() error {
	if m.Classes < 1 || m.Classes > MaxTypes {
		return fmt.Errorf("vhc: %d classes outside [1,%d]", m.Classes, MaxTypes)
	}
	for t, c := range m.ByType {
		if c < 0 || c >= m.Classes {
			return fmt.Errorf("vhc: type %d mapped to class %d of %d", t, c, m.Classes)
		}
	}
	return nil
}

// IdentityClassMap maps every type to its own class (the paper's base
// setting, where the catalog is already small).
func IdentityClassMap(numTypes int) (*ClassMap, error) {
	if numTypes < 1 || numTypes > MaxTypes {
		return nil, fmt.Errorf("vhc: numTypes %d outside [1,%d]", numTypes, MaxTypes)
	}
	byType := make([]int, numTypes)
	for i := range byType {
		byType[i] = i
	}
	return &ClassMap{ByType: byType, Classes: numTypes}, nil
}

// typeVector normalizes a VM configuration for clustering. Scales chosen
// so one large dimension cannot dominate: vCPUs /16, memory /64 GB,
// disk /1000 GB.
func typeVector(t vm.Type) [3]float64 {
	return [3]float64{
		float64(t.VCPUs) / 16,
		float64(t.MemoryGB) / 64,
		float64(t.DiskGB) / 1000,
	}
}

func dist2(a, b [3]float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ClusterTypes groups an arbitrary catalog into k classes with k-means
// (k-means++ seeding, deterministic in seed). k must not exceed the
// catalog size or MaxTypes.
func ClusterTypes(catalog vm.Catalog, k int, seed int64) (*ClassMap, error) {
	if err := catalog.Validate(); err != nil {
		return nil, err
	}
	n := len(catalog)
	if n == 0 {
		return nil, errors.New("vhc: empty catalog")
	}
	if k < 1 || k > MaxTypes {
		return nil, fmt.Errorf("vhc: k=%d outside [1,%d]", k, MaxTypes)
	}
	if k > n {
		return nil, fmt.Errorf("vhc: k=%d exceeds %d catalog types", k, n)
	}
	points := make([][3]float64, n)
	for i, t := range catalog {
		points[i] = typeVector(t)
	}

	rng := rand.New(rand.NewSource(seed))
	centroids := seedKMeansPP(points, k, rng)

	assign := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := dist2(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; an empty cluster keeps its old centre.
		var sums [][3]float64 = make([][3]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			c := assign[i]
			for d := 0; d < 3; d++ {
				sums[c][d] += p[d]
			}
			counts[c]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < 3; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	// Relabel classes densely in order of first appearance so the map is
	// stable and empty clusters vanish.
	relabel := make(map[int]int)
	byType := make([]int, n)
	for i, c := range assign {
		nc, ok := relabel[c]
		if !ok {
			nc = len(relabel)
			relabel[c] = nc
		}
		byType[i] = nc
	}
	dense := make([][3]float64, len(relabel))
	for old, nc := range relabel {
		dense[nc] = centroids[old]
	}
	return &ClassMap{ByType: byType, Classes: len(relabel), Centroids: dense}, nil
}

// seedKMeansPP picks k initial centres with k-means++ weighting.
func seedKMeansPP(points [][3]float64, k int, rng *rand.Rand) [][3]float64 {
	centroids := make([][3]float64, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))])
	for len(centroids) < k {
		weights := make([]float64, len(points))
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := dist2(p, c); d < best {
					best = d
				}
			}
			weights[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with a centre; duplicate one.
			centroids = append(centroids, points[rng.Intn(len(points))])
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, w := range weights {
			target -= w
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx])
	}
	return centroids
}

// ClassComboFor returns the class combination of a coalition under the
// class map.
func ClassComboFor(set *vm.Set, mask vm.Coalition, classes *ClassMap) (ComboMask, error) {
	if err := classes.Validate(); err != nil {
		return 0, err
	}
	var combo ComboMask
	for _, id := range mask.Members() {
		v, err := set.VM(id)
		if err != nil {
			return 0, err
		}
		if int(v.Type) >= len(classes.ByType) {
			return 0, fmt.Errorf("vhc: type %d not covered by class map", v.Type)
		}
		combo |= 1 << uint(classes.ByType[v.Type])
	}
	return combo, nil
}

// ClassedFeaturesFor aggregates the states of a running set (one flag
// per VM) per *class* instead of per type (the arbitrary-configuration
// generalization of Eq. 8) and returns the class combo plus the flattened
// feature vector. It is ClassedFeaturesInto with a feature slice of its
// own.
func ClassedFeaturesFor(set *vm.Set, running []bool, states []vm.State, classes *ClassMap) (ComboMask, []float64, error) {
	var feat [MaxFeatureLen]float64
	combo, f, err := ClassedFeaturesInto(set, running, states, classes, &feat)
	if err != nil {
		return 0, nil, err
	}
	return combo, append(make([]float64, 0, len(f)), f...), nil
}

// ClassedFeaturesInto is ClassedFeaturesFor without allocating: it
// writes the feature vector into feat and returns it as a slice of feat.
// Members are added in ascending VM-ID order, the order Plan.Eval adds
// them in, so the two agree bit for bit.
func ClassedFeaturesInto(set *vm.Set, running []bool, states []vm.State, classes *ClassMap, feat *[MaxFeatureLen]float64) (ComboMask, []float64, error) {
	if err := classes.Validate(); err != nil {
		return 0, nil, err
	}
	if len(states) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d states for %d VMs", len(states), set.Len())
	}
	if len(running) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d running flags for %d VMs", len(running), set.Len())
	}
	var agg [MaxTypes]vm.State
	var combo ComboMask
	for i, r := range running {
		if !r {
			continue
		}
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return 0, nil, err
		}
		if int(v.Type) >= len(classes.ByType) {
			return 0, nil, fmt.Errorf("vhc: type %d not covered by class map", v.Type)
		}
		class := classes.ByType[v.Type]
		combo |= 1 << uint(class)
		agg[class] = agg[class].Add(states[i])
	}
	n := 0
	for m := uint16(combo); m != 0; m &= m - 1 {
		n += copy(feat[n:], agg[bits.TrailingZeros16(m)][:])
	}
	return combo, feat[:n], nil
}
