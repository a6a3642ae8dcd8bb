package sim

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
)

// journaled executes cfg through run with the detection journal captured.
func journaled(run func(Config) (*Result, error), cfg Config) (*Result, []byte, error) {
	jr := journal.New(4096)
	cfg.Journal = jr
	res, err := run(cfg)
	if err != nil {
		return nil, nil, err
	}
	var jb bytes.Buffer
	err = jr.WriteNDJSON(&jb)
	return res, jb.Bytes(), err
}

// TestWorldRunEqualsRun: the six golden scenarios differ in churn,
// faults, overload plane, radius and budget but not in the four world
// fields, so one World serves them all — concurrently, the subtests being
// parallel — and each must equal its own Run in every Result field and
// every journal byte.
func TestWorldRunEqualsRun(t *testing.T) {
	t.Parallel()
	w, err := NewWorld(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, wantJr, err := journaled(Run, sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			got, gotJr, err := journaled(w.Run, sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Results differ:\nWorld.Run: %+v\nRun:       %+v", got, want)
			}
			if !bytes.Equal(gotJr, wantJr) {
				t.Errorf("journals differ (%d vs %d bytes)", len(gotJr), len(wantJr))
			}
			if len(gotJr) == 0 {
				t.Error("empty journal (vacuous)")
			}
		})
	}
}

// sharedWorldConfigs are eight runs over one world that differ in
// everything a figure's rows differ in: agents, DD-POLICE, cut
// threshold, churn and scheduled faults.
func sharedWorldConfigs() []Config {
	base := smallConfig()
	base.NumPeers = 400
	base.DurationSec = 180
	base.Catalog.NumObjects = 500
	vary := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.NumAgents = 2 },
		func(c *Config) { c.NumAgents, c.PoliceEnabled = 2, true },
		func(c *Config) { c.NumAgents, c.PoliceEnabled, c.Police.CutThreshold = 4, true, 3 },
		func(c *Config) { c.NumAgents, c.PoliceEnabled, c.Police.CutThreshold = 4, true, 10 },
		func(c *Config) { c.NumAgents, c.PoliceEnabled, c.ChurnEnabled = 2, true, true },
		func(c *Config) { c.NumAgents, c.PoliceEnabled, c.Faults = 2, true, &faults.Schedule{ControlLoss: 0.2} },
		func(c *Config) {
			c.NumAgents, c.PoliceEnabled = 2, true
			c.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{{StartSec: 70, EndSec: 130, Peers: []int{1, 2, 3, 4}}}}
		},
	}
	cfgs := make([]Config, len(vary))
	for i, v := range vary {
		cfgs[i] = base
		v(&cfgs[i])
	}
	return cfgs
}

// TestSharedWorldConcurrentRuns is the test `make race` must see: eight
// different runs at once on one World, each equal to its solo Run. A
// write to the shared graph or catalog is a race here, and a run that
// moved another's query stream is a differing Result.
func TestSharedWorldConcurrentRuns(t *testing.T) {
	t.Parallel()
	cfgs := sharedWorldConfigs()
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, gotJr, errs := make([]*Result, len(cfgs)), make([][]byte, len(cfgs)), make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotJr[i], errs[i] = journaled(w.Run, cfgs[i])
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		want, wantJr, err := journaled(Run, cfg)
		if err = errors.Join(err, errs[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) || !bytes.Equal(gotJr[i], wantJr) {
			t.Errorf("config %d: the shared-world run differs from its solo Run:\n%+v\n%+v", i, got[i], want)
		}
		if i > 0 && reflect.DeepEqual(got[i], got[i-1]) {
			t.Errorf("configs %d and %d gave one Result (vacuous)", i-1, i)
		}
	}
}

// TestWorldRunRefusesForeignConfig: each of the four fields that decide
// a world is checked by name; anything else may differ.
func TestWorldRunRefusesForeignConfig(t *testing.T) {
	t.Parallel()
	base := sharedWorldConfigs()[0]
	base.DurationSec = 60
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string]func(*Config){
		"Seed":      func(c *Config) { c.Seed++ },
		"NumPeers":  func(c *Config) { c.NumPeers++ },
		"TopologyM": func(c *Config) { c.TopologyM++ },
		"Catalog":   func(c *Config) { c.Catalog.MeanReplicas++ },
	}
	for field, change := range foreign {
		cfg := base
		change(&cfg)
		if _, err := w.Run(cfg); err == nil || !strings.Contains(err.Error(), "Config."+field+" ") {
			t.Errorf("foreign %s: err = %v, want one naming Config.%s", field, err, field)
		}
	}
	cfg := base
	cfg.NumAgents, cfg.PoliceEnabled, cfg.QueriesPerMin = 3, true, 0.5
	if _, err := w.Run(cfg); err != nil {
		t.Errorf("a config of this world refused: %v", err)
	}
	cfg.NumAgents = cfg.NumPeers
	if _, err := w.Run(cfg); err == nil {
		t.Error("an invalid config of this world accepted")
	}
}

// gridConfigs is three configurations over two worlds, interleaved so
// that world-major dispatch has to reorder them.
func gridConfigs() []Config {
	cfgs := sharedWorldConfigs()[1:4]
	for i := range cfgs {
		cfgs[i].DurationSec = 120
	}
	cfgs[1].NumPeers = 300
	return cfgs
}

// TestGridEqualsSequentialRuns: with seeds, a grid's result per
// configuration is mergeResults over sequential Runs in seed order, bit
// for bit; without, it is each configuration's own Run — at one worker
// and at four.
func TestGridEqualsSequentialRuns(t *testing.T) {
	cfgs, seeds := gridConfigs(), []uint64{7, 8, 9}
	wantOwn := make([]*Result, len(cfgs))
	wantMerged := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if wantOwn[i], err = Run(cfg); err != nil {
			t.Fatal(err)
		}
		rs := make([]*Result, len(seeds))
		for j, s := range seeds {
			cfg.Seed = s
			if rs[j], err = Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		wantMerged[i] = mergeResults(rs)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		own, err := Grid(cfgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Grid(cfgs, seeds)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(own, wantOwn) {
			t.Errorf("GOMAXPROCS %d: Grid without seeds differs from sequential Runs", procs)
		}
		if !reflect.DeepEqual(merged, wantMerged) {
			t.Errorf("GOMAXPROCS %d: Grid with seeds differs from sequential Runs merged in seed order", procs)
		}
	}
}

// TestGridFirstErrorInDispatchOrder: jobs are dispatched world by world
// and more than one may fail; the error is the first failure in that
// order — here the third configuration on the first seed, though the
// second, of the world dispatched later, is invalid too — at any worker
// count, and no results come with it.
func TestGridFirstErrorInDispatchOrder(t *testing.T) {
	cfgs := append(gridConfigs(), gridConfigs()...)
	cfgs[1].TTL = 0                      // invalid, in the second world
	cfgs[2].NumAgents = cfgs[2].NumPeers // invalid, in the first world
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rs, err := Grid(cfgs, []uint64{5, 6})
		runtime.GOMAXPROCS(prev)
		var job *JobError
		if !errors.As(err, &job) || job.Index != 2 || job.Seed != 5 || !strings.Contains(err.Error(), "NumAgents") {
			t.Errorf("GOMAXPROCS %d: err = %v, want config 2's NumAgents on seed 5", procs, err)
		}
		if rs != nil {
			t.Errorf("GOMAXPROCS %d: results returned beside the error", procs)
		}
	}
}
