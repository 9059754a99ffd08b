package vm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestStateValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       State
		wantErr bool
	}{
		{name: "zero", s: State{}},
		{name: "full", s: State{1, 1, 1}},
		{name: "mid", s: State{0.5, 0.25, 0.1}},
		{name: "negative", s: State{-0.1, 0, 0}, wantErr: true},
		{name: "above one", s: State{1.1, 0, 0}, wantErr: true},
		{name: "nan", s: State{math.NaN(), 0, 0}, wantErr: true},
		{name: "inf", s: State{0, math.Inf(1), 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate()
			if tt.wantErr && !errors.Is(err, ErrStateRange) {
				t.Fatalf("want ErrStateRange, got %v", err)
			}
			if !tt.wantErr && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestStateAdd(t *testing.T) {
	a := State{0.5, 0.2, 0.1}
	b := State{0.7, 0.3, 0.0}
	got := a.Add(b)
	want := State{1.2, 0.5, 0.1}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Add[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestStateQuantize(t *testing.T) {
	s := State{0.123, 0.456, 0.789}
	q := s.Quantize(0.01)
	want := State{0.12, 0.46, 0.79}
	for i := range q {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Fatalf("Quantize[%d] = %g, want %g", i, q[i], want[i])
		}
	}
	if s.Quantize(0) != s {
		t.Fatal("zero resolution must be identity")
	}
	if s.Quantize(-1) != s {
		t.Fatal("negative resolution must be identity")
	}
}

func TestStateIsIdleVec(t *testing.T) {
	if !(State{}).IsIdle() {
		t.Fatal("zero state must be idle")
	}
	if (State{0.1, 0, 0}).IsIdle() {
		t.Fatal("busy state must not be idle")
	}
	v := (State{0.1, 0.2, 0.3}).Vec()
	if len(v) != int(NumComponents) || v[0] != 0.1 || v[2] != 0.3 {
		t.Fatalf("Vec = %v", v)
	}
}

func TestComponentString(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "memory" || DiskIO.String() != "diskio" {
		t.Fatal("component names wrong")
	}
	if Component(99).String() == "" {
		t.Fatal("unknown component must still render")
	}
}

func TestPaperCatalog(t *testing.T) {
	c := PaperCatalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c) != 4 {
		t.Fatalf("catalog size = %d", len(c))
	}
	vcpus := []int{1, 2, 4, 8}
	for i, tt := range c {
		if tt.VCPUs != vcpus[i] {
			t.Fatalf("type %d vCPUs = %d, want %d", i, tt.VCPUs, vcpus[i])
		}
	}
	if _, err := c.ByID(TypeID(4)); err == nil {
		t.Fatal("want error for unknown type")
	}
	if _, err := c.ByID(TypeID(-1)); err == nil {
		t.Fatal("want error for negative type")
	}
}

func TestCatalogValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		c    Catalog
	}{
		{name: "sparse ids", c: Catalog{{ID: 1, Name: "a", VCPUs: 1, MemoryGB: 1, DiskGB: 1}}},
		{name: "zero vcpus", c: Catalog{{ID: 0, Name: "a", VCPUs: 0, MemoryGB: 1, DiskGB: 1}}},
		{name: "zero memory", c: Catalog{{ID: 0, Name: "a", VCPUs: 1, MemoryGB: 0, DiskGB: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

func TestNewSet(t *testing.T) {
	set, err := NewSet(PaperCatalog(), []VM{
		{Name: "a", Type: 0},
		{Type: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	v, err := set.VM(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "vm1" {
		t.Fatalf("default name = %q", v.Name)
	}
	if v.ID != 1 {
		t.Fatalf("assigned ID = %d", v.ID)
	}
	typ, err := set.TypeOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if typ.VCPUs != 8 {
		t.Fatalf("TypeOf vCPUs = %d", typ.VCPUs)
	}
	if _, err := set.VM(5); err == nil {
		t.Fatal("want out-of-range error")
	}
	all := set.All()
	all[0].Name = "mutated"
	orig, _ := set.VM(0)
	if orig.Name != "a" {
		t.Fatal("All must copy")
	}
}

func TestNewSetErrors(t *testing.T) {
	if _, err := NewSet(PaperCatalog(), []VM{{Type: 9}}); err == nil {
		t.Fatal("want unknown type error")
	}
	tooMany := make([]VM, MaxVMs+1)
	if _, err := NewSet(PaperCatalog(), tooMany); err == nil {
		t.Fatal("want VM-limit error")
	}
	// Sets past the coalition-bitmask cap are legal (symmetry-collapsed
	// estimation handles them); only MaxVMs rejects.
	wide := make([]VM, MaxPlayers+1)
	if _, err := NewSet(PaperCatalog(), wide); err != nil {
		t.Fatalf("set of %d VMs must be allowed: %v", MaxPlayers+1, err)
	}
}

// Property: quantized entries are multiples of the resolution and stay
// within one half-step of the input.
func TestStateQuantizeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		clip := func(x float64) float64 {
			x = math.Abs(math.Mod(x, 1))
			if math.IsNaN(x) {
				return 0
			}
			return x
		}
		s := State{clip(a), clip(b), clip(c)}
		q := s.Quantize(0.01)
		for i := range q {
			if math.Abs(q[i]-s[i]) > 0.005+1e-12 {
				return false
			}
			steps := q[i] / 0.01
			if math.Abs(steps-math.Round(steps)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
