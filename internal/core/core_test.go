package core

import (
	"strings"
	"testing"

	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// testFlavor builds a flavor with a constant per-tuple cost that fills the
// result vector with a marker value.
func testFlavor(name string, marker int64, costPerTuple float64) *Flavor {
	return &Flavor{
		Name:   name,
		Source: "test",
		Tags:   map[string]string{"marker": name},
		Fn: func(ctx *ExecCtx, c *Call) (int, float64) {
			res := c.Res.I64()
			for i := 0; i < c.N; i++ {
				res[i] = marker
			}
			return c.N, float64(c.Live()) * costPerTuple
		},
	}
}

func TestDictionaryRegistrationAndLookup(t *testing.T) {
	d := NewDictionary()
	if err := d.AddFlavor("p1", hw.ClassMapArith, testFlavor("a", 1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddFlavor("p1", hw.ClassMapArith, testFlavor("b", 2, 3)); err != nil {
		t.Fatal(err)
	}
	p, ok := d.Lookup("p1")
	if !ok || len(p.Flavors) != 2 {
		t.Fatalf("lookup: ok=%v flavors=%d", ok, len(p.Flavors))
	}
	if d.NumFlavors("p1") != 2 || d.NumFlavors("nope") != 0 {
		t.Error("NumFlavors wrong")
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Error("unknown signature should fail lookup")
	}
	if err := d.AddFlavor("p1", hw.ClassMapArith, testFlavor("a", 9, 9)); err == nil {
		t.Error("duplicate flavor name should error")
	}
	if p.FlavorIndex("b") != 1 || p.FlavorIndex("z") != -1 {
		t.Error("FlavorIndex wrong")
	}
	if p.FlavorByTag("marker", "b") != 1 || p.FlavorByTag("marker", "zz") != -1 {
		t.Error("FlavorByTag wrong")
	}
	sigs := d.Sigs()
	if len(sigs) != 1 || sigs[0] != "p1" {
		t.Errorf("sigs = %v", sigs)
	}
}

func TestDictionaryDynamicRegistration(t *testing.T) {
	// The paper's registration mechanism allows loading flavor libraries
	// while the system is active: an instance created before must not be
	// affected, but new instances see the extra flavor.
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	s := NewSession(d, hw.Machine1())
	inst1 := s.Instance("p", "before")
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("b", 2, 1))
	inst2 := s.Instance("p", "after")
	if len(inst1.PerFlavor) != 1 {
		t.Error("pre-registration instance should track one flavor")
	}
	if len(inst2.PerFlavor) != 2 {
		t.Error("post-registration instance should track two flavors")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on unknown signature should panic")
		}
	}()
	NewDictionary().MustLookup("missing")
}

func TestInstanceRunProfilesAndChooses(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("slow", 1, 10))
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("fast", 2, 1))
	s := NewSession(d, hw.Machine1(), WithVectorSize(64))
	inst := s.Instance("p", "T/p#0")

	res := vector.New(vector.I64, 64)
	res.SetLen(64)
	for i := 0; i < 500; i++ {
		c := &Call{N: 64, Res: res}
		inst.Run(s.Ctx, c)
	}
	if inst.Calls != 500 {
		t.Errorf("calls = %d", inst.Calls)
	}
	if inst.Tuples != 500*64 {
		t.Errorf("tuples = %d", inst.Tuples)
	}
	if inst.Cycles <= 0 || s.Ctx.PrimCycles != inst.Cycles {
		t.Error("cycle accounting inconsistent")
	}
	// vw-greedy must spend most calls on the fast flavor.
	if inst.PerFlavor[1].Calls < 350 {
		t.Errorf("fast flavor calls = %d/500, want dominant", inst.PerFlavor[1].Calls)
	}
	if inst.History().Calls() != 500 {
		t.Error("APH must record every call")
	}
	if inst.CyclesPerTuple() <= 0 {
		t.Error("cycles per tuple must be positive")
	}
	if inst.PerFlavor[0].CyclesPerTuple() <= inst.PerFlavor[1].CyclesPerTuple() {
		t.Error("per-flavor stats should reflect the cost difference")
	}
	if (FlavorStats{}).CyclesPerTuple() != 0 {
		t.Error("empty flavor stats cost should be 0")
	}
}

func TestSessionInstanceMemoization(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	s := NewSession(d, hw.Machine1())
	i1 := s.Instance("p", "x")
	i2 := s.Instance("p", "x")
	i3 := s.Instance("p", "y")
	if i1 != i2 {
		t.Error("same label must return the same instance")
	}
	if i1 == i3 {
		t.Error("different labels must be distinct instances")
	}
	if len(s.Instances()) != 2 {
		t.Errorf("instances = %d, want 2", len(s.Instances()))
	}
	if s.InstanceByLabel("y") != i3 || s.InstanceByLabel("zz") != nil {
		t.Error("InstanceByLabel wrong")
	}
	found := s.FindInstances("x")
	if len(found) != 1 || found[0] != i1 {
		t.Error("FindInstances wrong")
	}
	s.ResetInstances()
	if len(s.Instances()) != 0 || s.Ctx.TotalCycles() != 0 {
		t.Error("reset should clear instances and cycles")
	}
}

func TestSessionOptions(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	s := NewSession(d, hw.Machine2(),
		WithVectorSize(256),
		WithSeed(99),
		WithChooser(func(n int) Chooser { return NewFixed(0) }))
	if s.VectorSize != 256 {
		t.Error("vector size option ignored")
	}
	if s.Machine.Name != "machine2" {
		t.Error("machine wrong")
	}
	inst := s.Instance("p", "l")
	if _, ok := inst.Chooser().(*Fixed); !ok {
		t.Error("chooser factory ignored")
	}
}

// TestWithInstanceChooser: the instance-aware factory receives the
// signature and label of each new instance and takes precedence over the
// plain factory — the hook warm-started sessions hang their cache lookup on.
func TestWithInstanceChooser(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p1", hw.ClassMapArith, testFlavor("a", 1, 5))
	d.AddFlavor("p1", hw.ClassMapArith, testFlavor("b", 2, 3))
	var gotSig, gotLabel string
	var gotArms []string
	s := NewSession(d, hw.Machine1(),
		WithChooser(func(n int) Chooser { t.Error("plain factory must not be used"); return NewFixed(0) }),
		WithInstanceChooser(func(sig, label string, arms []string) Chooser {
			gotSig, gotLabel, gotArms = sig, label, arms
			return NewFixed(1)
		}))
	inst := s.Instance("p1", "Q99/p1#0")
	if gotSig != "p1" || gotLabel != "Q99/p1#0" || len(gotArms) != 2 || gotArms[0] != "a" || gotArms[1] != "b" {
		t.Errorf("factory saw (%q, %q, %v), want (p1, Q99/p1#0, [a b])", gotSig, gotLabel, gotArms)
	}
	if inst.Chooser().Choose(ChooseContext{}) != 1 {
		t.Error("instance should use the chooser the instance factory built")
	}
	// Memoized instances do not re-invoke the factory.
	gotLabel = ""
	if s.Instance("p1", "Q99/p1#0") != inst {
		t.Error("memoization broken")
	}
	if gotLabel != "" {
		t.Error("factory re-invoked for a memoized instance")
	}
}

func TestInstanceWithNoFlavorsPanics(t *testing.T) {
	d := NewDictionary()
	d.Register("empty", hw.ClassMapArith)
	s := NewSession(d, hw.Machine1())
	defer func() {
		if recover() == nil {
			t.Error("instance over zero flavors should panic")
		}
	}()
	s.Instance("empty", "l")
}

func TestExecCtxStageAccounting(t *testing.T) {
	ctx := NewExecCtx(hw.Machine1())
	ctx.PreCycles = 10
	ctx.PrimCycles = 1000
	ctx.OperatorCycles = 50
	ctx.PostCycles = 5
	if ctx.ExecuteCycles() != 1050 {
		t.Errorf("execute = %v", ctx.ExecuteCycles())
	}
	if ctx.TotalCycles() != 1065 {
		t.Errorf("total = %v", ctx.TotalCycles())
	}
	ctx.ResetCycles()
	if ctx.TotalCycles() != 0 {
		t.Error("reset failed")
	}
}

func TestCallLiveAndDensity(t *testing.T) {
	c := &Call{N: 100}
	if c.Live() != 100 || c.Density() != 1 {
		t.Error("dense call wrong")
	}
	c.Sel = []int32{1, 2, 3}
	if c.Live() != 3 || c.Density() != 0.03 {
		t.Errorf("selected call live/density = %d/%v", c.Live(), c.Density())
	}
	c2 := &Call{N: 10, Cap: 100}
	if c2.Density() != 0.1 {
		t.Errorf("cap density = %v, want 0.1", c2.Density())
	}
	c3 := &Call{N: 0}
	if c3.Density() != 1 {
		t.Error("empty call density should be 1")
	}
}

func TestChooserSeesCallContext(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("b", 2, 5))
	s := NewSession(d, hw.Machine1(), WithChooser(func(n int) Chooser {
		return &densityChooser{}
	}))
	inst := s.Instance("p", "l")
	res := vector.New(vector.I64, 8)
	res.SetLen(8)
	// Dense call: expect arm 1; sparse call: arm 0.
	inst.Run(s.Ctx, &Call{N: 8, Res: res})
	if inst.LastArm != 1 {
		t.Errorf("dense call arm = %d, want 1", inst.LastArm)
	}
	inst.Run(s.Ctx, &Call{N: 8, Sel: []int32{0}, Res: res})
	if inst.LastArm != 0 {
		t.Errorf("sparse call arm = %d, want 0", inst.LastArm)
	}
}

type densityChooser struct{}

func (d *densityChooser) Name() string        { return "density" }
func (d *densityChooser) Observe(Observation) {}
func (d *densityChooser) Choose(cc ChooseContext) int {
	if cc.Call != nil && cc.Call.Density() > 0.5 {
		return 1
	}
	return 0
}

func TestFlavorTagHelper(t *testing.T) {
	f := &Flavor{Name: "x"}
	if f.Tag("anything") != "" {
		t.Error("nil tags should return empty")
	}
	f.Tags = map[string]string{"k": "v"}
	if f.Tag("k") != "v" {
		t.Error("tag lookup wrong")
	}
}

func TestFindInstancesSorted(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	s := NewSession(d, hw.Machine1())
	s.Instance("p", "Q2/b")
	s.Instance("p", "Q1/a")
	s.Instance("p", "Q3/c")
	labels := []string{}
	for _, inst := range s.FindInstances("Q") {
		labels = append(labels, inst.Label)
	}
	if strings.Join(labels, ",") != "Q1/a,Q2/b,Q3/c" {
		t.Errorf("sorted labels = %v", labels)
	}
}
