package config

import (
	"math/rand"
	"reflect"
	"testing"
)

// perturb returns base with each field Overrides can express changed with
// probability p. It walks Overrides by reflection, so a field added there
// is perturbed without editing this test (an unhandled kind fails it).
func perturb(t *testing.T, rng *rand.Rand, base Config, p float64) Config {
	t.Helper()
	c := base
	cv := reflect.ValueOf(&c).Elem()
	ot := reflect.TypeOf(Overrides{})
	for i := 0; i < ot.NumField(); i++ {
		if rng.Float64() >= p {
			continue
		}
		name := ot.Field(i).Name
		f := cv.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("Overrides.%s has no Config field", name)
		}
		switch {
		case name == "Mode":
			c.Mode = map[Mode]Mode{ModeCache: ModeFlat, ModeFlat: ModeCache}[c.Mode]
		case name == "Tiers":
			c.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "pcm", Bytes: rng.Uint64()}}
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.CanInt():
			f.SetInt(f.Int() + 1 + rng.Int63n(100))
		case f.CanUint():
			f.SetUint(f.Uint() + 1 + uint64(rng.Int63n(100)))
		case f.CanFloat():
			f.SetFloat(f.Float() + 0.5 + rng.Float64())
		default:
			t.Fatalf("Overrides.%s: unhandled kind %s", name, f.Kind())
		}
	}
	return c
}

// TestDiffRoundTrip: applying Diff(base, c) onto base reproduces c, for
// randomized configs, and Diff sets exactly the fields that differ.
func TestDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := Scaled()
	if o := Diff(&base, &base); !reflect.DeepEqual(o, Overrides{}) {
		t.Fatalf("Diff(base, base) = %+v, want empty", o)
	}
	for i := 0; i < 200; i++ {
		c := perturb(t, rng, base, 0.3)
		o := Diff(&base, &c)
		got := base
		o.Apply(&got)
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("iteration %d: Apply(Diff(base, c)) = %+v, want %+v", i, got, c)
		}
	}
	// With every field changed, every Overrides field must be set.
	all := perturb(t, rng, base, 1)
	o := reflect.ValueOf(Diff(&base, &all))
	for i := 0; i < o.NumField(); i++ {
		if o.Field(i).IsNil() {
			t.Errorf("Diff leaves Overrides.%s nil for a differing value", o.Type().Field(i).Name)
		}
	}
}

// TestDiffWholesaleFields pins the field Diff compares with
// reflect.DeepEqual: a config that differs from base only in Tiers diffs to
// exactly that field and applies back to itself.
func TestDiffWholesaleFields(t *testing.T) {
	base := Scaled()
	tiers := base
	tiers.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "nvm"}, {Preset: "cxl-dram"}}
	for _, tc := range []struct {
		name string
		c    Config
		want Overrides
	}{
		{"tiers", tiers, Overrides{Tiers: &tiers.Tiers}},
	} {
		o := Diff(&base, &tc.c)
		if !reflect.DeepEqual(o, tc.want) {
			t.Fatalf("%s: Diff = %+v, want only that field set", tc.name, o)
		}
		got := base
		o.Apply(&got)
		if !reflect.DeepEqual(got, tc.c) {
			t.Fatalf("%s: Apply(Diff(base, c)) = %+v, want %+v", tc.name, got, tc.c)
		}
	}
}
