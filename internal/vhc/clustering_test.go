package vhc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// arbitraryCatalog builds n distinct VM configurations spanning small to
// large shapes, mimicking a cloud with per-customer custom sizes.
func arbitraryCatalog(n int) vm.Catalog {
	c := make(vm.Catalog, n)
	for i := 0; i < n; i++ {
		c[i] = vm.Type{
			ID:       vm.TypeID(i),
			Name:     fmt.Sprintf("custom%d", i),
			VCPUs:    1 + i%8,
			MemoryGB: 2 + 2*(i%7),
			DiskGB:   20 + 30*(i%5),
		}
	}
	return c
}

func TestIdentityClassMap(t *testing.T) {
	m, err := IdentityClassMap(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Classes != 4 {
		t.Fatalf("Classes = %d", m.Classes)
	}
	for i, c := range m.ByType {
		if c != i {
			t.Fatalf("ByType[%d] = %d", i, c)
		}
	}
	if _, err := IdentityClassMap(0); err == nil {
		t.Fatal("want numTypes error")
	}
	if _, err := IdentityClassMap(MaxTypes + 1); err == nil {
		t.Fatal("want numTypes error")
	}
}

func TestClassMapValidate(t *testing.T) {
	bad := &ClassMap{ByType: []int{0, 5}, Classes: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("want out-of-range class error")
	}
	bad = &ClassMap{ByType: []int{0}, Classes: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("want classes-range error")
	}
}

func TestClusterTypes(t *testing.T) {
	catalog := arbitraryCatalog(20)
	m, err := ClusterTypes(catalog, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.ByType) != 20 {
		t.Fatalf("ByType covers %d types", len(m.ByType))
	}
	if m.Classes < 1 || m.Classes > 4 {
		t.Fatalf("Classes = %d", m.Classes)
	}
	if len(m.Centroids) != m.Classes {
		t.Fatalf("%d centroids for %d classes", len(m.Centroids), m.Classes)
	}
	// Determinism: same seed, same map.
	m2, err := ClusterTypes(catalog, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.ByType {
		if m.ByType[i] != m2.ByType[i] {
			t.Fatal("clustering not deterministic for a fixed seed")
		}
	}
}

func TestClusterTypesGroupsSimilarConfigs(t *testing.T) {
	// Two tight groups of configurations must land in two classes with
	// the groups kept intact.
	catalog := vm.Catalog{
		{ID: 0, Name: "s1", VCPUs: 1, MemoryGB: 2, DiskGB: 20},
		{ID: 1, Name: "s2", VCPUs: 1, MemoryGB: 2, DiskGB: 25},
		{ID: 2, Name: "s3", VCPUs: 2, MemoryGB: 2, DiskGB: 20},
		{ID: 3, Name: "b1", VCPUs: 8, MemoryGB: 32, DiskGB: 500},
		{ID: 4, Name: "b2", VCPUs: 8, MemoryGB: 30, DiskGB: 480},
	}
	m, err := ClusterTypes(catalog, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes != 2 {
		t.Fatalf("Classes = %d", m.Classes)
	}
	if m.ByType[0] != m.ByType[1] || m.ByType[1] != m.ByType[2] {
		t.Fatalf("small group split: %v", m.ByType)
	}
	if m.ByType[3] != m.ByType[4] {
		t.Fatalf("big group split: %v", m.ByType)
	}
	if m.ByType[0] == m.ByType[3] {
		t.Fatalf("groups merged: %v", m.ByType)
	}
}

func TestClusterTypesValidation(t *testing.T) {
	catalog := arbitraryCatalog(5)
	if _, err := ClusterTypes(catalog, 0, 1); err == nil {
		t.Fatal("want k error")
	}
	if _, err := ClusterTypes(catalog, 6, 1); err == nil {
		t.Fatal("want k > n error")
	}
	if _, err := ClusterTypes(vm.Catalog{}, 1, 1); err == nil {
		t.Fatal("want empty-catalog error")
	}
}

func TestClusterTypesDuplicatePoints(t *testing.T) {
	// All-identical configs: k-means++ must not spin; one class remains
	// after dense relabelling (or k duplicated centres collapse).
	catalog := vm.Catalog{
		{ID: 0, Name: "a", VCPUs: 2, MemoryGB: 4, DiskGB: 40},
		{ID: 1, Name: "b", VCPUs: 2, MemoryGB: 4, DiskGB: 40},
		{ID: 2, Name: "c", VCPUs: 2, MemoryGB: 4, DiskGB: 40},
	}
	m, err := ClusterTypes(catalog, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := m.ByType[0]
	for _, c := range m.ByType {
		if c != first {
			t.Fatalf("identical configs split: %v", m.ByType)
		}
	}
}

func TestClassedFeaturesFor(t *testing.T) {
	catalog := vm.Catalog{
		{ID: 0, Name: "a", VCPUs: 1, MemoryGB: 2, DiskGB: 20},
		{ID: 1, Name: "b", VCPUs: 1, MemoryGB: 2, DiskGB: 22}, // same class as a
		{ID: 2, Name: "c", VCPUs: 8, MemoryGB: 32, DiskGB: 500},
	}
	set, err := vm.NewSet(catalog, []vm.VM{{Type: 0}, {Type: 1}, {Type: 2}})
	if err != nil {
		t.Fatal(err)
	}
	classes := &ClassMap{ByType: []int{0, 0, 1}, Classes: 2}
	states := []vm.State{{vm.CPU: 0.4}, {vm.CPU: 0.5}, {vm.CPU: 0.9}}
	combo, features, err := ClassedFeaturesFor(set, []bool{true, true, true}, states, classes)
	if err != nil {
		t.Fatal(err)
	}
	if combo != 0b11 {
		t.Fatalf("combo = %v", combo)
	}
	k := int(vm.NumComponents)
	if len(features) != 2*k {
		t.Fatalf("feature length = %d", len(features))
	}
	// Types 0 and 1 share class 0: their CPU states sum.
	if math.Abs(features[0]-0.9) > 1e-12 {
		t.Fatalf("class-0 CPU = %g, want 0.9", features[0])
	}
	if math.Abs(features[k]-0.9) > 1e-12 {
		t.Fatalf("class-1 CPU = %g, want 0.9", features[k])
	}
	// A class map that does not cover the catalog errors out.
	shortMap := &ClassMap{ByType: []int{0}, Classes: 1}
	if _, _, err := ClassedFeaturesFor(set, []bool{true, true, true}, states, shortMap); err == nil {
		t.Fatal("want uncovered-type error")
	}
}

func TestClassComboFor(t *testing.T) {
	catalog := arbitraryCatalog(4)
	set, err := vm.NewSet(catalog, []vm.VM{{Type: 0}, {Type: 3}})
	if err != nil {
		t.Fatal(err)
	}
	classes := &ClassMap{ByType: []int{0, 0, 1, 1}, Classes: 2}
	combo, err := ClassComboFor(set, vm.GrandCoalition(2), classes)
	if err != nil {
		t.Fatal(err)
	}
	if combo != 0b11 {
		t.Fatalf("combo = %v", combo)
	}
	combo, err = ClassComboFor(set, vm.CoalitionOf(0), classes)
	if err != nil {
		t.Fatal(err)
	}
	if combo != 0b01 {
		t.Fatalf("combo = %v", combo)
	}
}

// flagsOf returns mask's running flags over n VMs.
func flagsOf(mask vm.Coalition, n int) []bool {
	flags := make([]bool, n)
	for _, id := range mask.Members() {
		flags[id] = true
	}
	return flags
}

// TestClassedFeaturesRunningMatchesMask pins the running-flag feature
// builder under the identity class map to the per-type aggregation of
// Eq. 8 over a coalition mask, bit for bit: both add members in
// ascending VM-ID order.
func TestClassedFeaturesRunningMatchesMask(t *testing.T) {
	set := testSet(t)
	classes, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	full := vm.GrandCoalition(set.Len())
	for trial := 0; trial < 200; trial++ {
		mask := vm.Coalition(rng.Intn(int(full) + 1))
		states := make([]vm.State, set.Len())
		for i := range states {
			for c := 0; c < int(vm.NumComponents); c++ {
				states[i][c] = rng.Float64()
			}
		}
		// The oracle: v_j = Σ c_i per present type (Eq. 8), flattened in
		// ascending type order.
		var combo ComboMask
		agg := make(map[vm.TypeID]vm.State)
		for _, id := range mask.Members() {
			v, err := set.VM(id)
			if err != nil {
				t.Fatal(err)
			}
			combo |= 1 << uint(v.Type)
			agg[v.Type] = agg[v.Type].Add(states[id])
		}
		var feats []float64
		for _, typ := range combo.Types() {
			s := agg[typ]
			feats = append(feats, s[:]...)
		}
		comboR, featsR, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
		if err != nil {
			t.Fatal(err)
		}
		if combo != comboR {
			t.Fatalf("mask=%s: combo %s != running combo %s", mask, combo, comboR)
		}
		if len(feats) != len(featsR) {
			t.Fatalf("mask=%s: %d features vs %d", mask, len(feats), len(featsR))
		}
		for i := range feats {
			if feats[i] != featsR[i] {
				t.Fatalf("mask=%s feature %d: %v != %v", mask, i, feats[i], featsR[i])
			}
		}
	}
	if _, _, err := ClassedFeaturesFor(set, make([]bool, 2), make([]vm.State, set.Len()), classes); err == nil {
		t.Fatal("wrong running length must error")
	}
	if _, _, err := ClassedFeaturesFor(set, make([]bool, set.Len()), make([]vm.State, 1), classes); err == nil {
		t.Fatal("wrong states length must error")
	}
}
