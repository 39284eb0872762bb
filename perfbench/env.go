package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/nn"
)

// Paths are relative to the repository root, the working directory the
// benchmark runs from.
const (
	// lenetWeights is the committed LeNet checkpoint (2400 training
	// samples, 6 epochs, seed 1); it is only ever read.
	lenetWeights = ".cache/lenet-n2400-e6-s1.gob"
	// buildDir holds everything the benchmark builds or writes.
	buildDir = ".bench_build"
)

var (
	prepDir    = filepath.Join(buildDir, "prep")
	lenetNoise = filepath.Join(prepDir, "lenet-conv2-stored-k4.gob")
	cifarNoise = filepath.Join(prepDir, "cifar-conv3-stored-k2.gob")
	// cifarPretrain is the reduced CifarNet pre-training config: 1600
	// training and 600 test images, 2 epochs, seed 1 (~0.6 test accuracy).
	cifarPretrain = model.TrainConfig{TrainN: 1600, TestN: 600, Epochs: 2, Seed: 1}
)

// Noise collections the prepare step learns once per checkout, at each
// network's registry hyperparameters (seed 1).
const (
	lenetNoiseMembers = 4
	cifarNoiseMembers = 2
)

// netEnv is a pre-trained network split at a cut, with its deployed noise.
type netEnv struct {
	bench    model.Benchmark
	pre      *model.Pretrained
	split    *core.Split
	cutLayer string
	noise    core.NoiseSource
}

// loadNet loads a network's weights from dir (never training: a missing
// checkpoint is an error) and splits it at cut. noisePath, when set,
// names the stored noise collection to deploy.
func loadNet(name, cut string, cfg model.TrainConfig, dir, noisePath string) (*netEnv, error) {
	bench, err := model.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(checkpoint(name, cfg, dir)); err != nil {
		return nil, fmt.Errorf("%s weights: %w", name, err)
	}
	pre, err := model.TrainCached(bench.Spec, cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("load %s weights: %w", name, err)
	}
	cutLayer, err := bench.Spec.CutLayer(cut)
	if err != nil {
		return nil, err
	}
	split, err := core.NewSplit(pre.Net, cutLayer, bench.Spec.Dataset.SampleShape())
	if err != nil {
		return nil, err
	}
	e := &netEnv{bench: bench, pre: pre, split: split, cutLayer: cutLayer}
	if noisePath != "" {
		f, err := os.Open(noisePath)
		if err != nil {
			return nil, fmt.Errorf("noise collection: %w", err)
		}
		defer f.Close()
		if e.noise, err = core.DecodeNoiseSource(f); err != nil {
			return nil, fmt.Errorf("decode %s: %w", noisePath, err)
		}
	}
	return e, nil
}

// checkpoint mirrors model.TrainCached's file naming.
func checkpoint(name string, cfg model.TrainConfig, dir string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-e%d-s%d.gob", name, cfg.TrainN, cfg.Epochs, cfg.Seed))
}

// lenetConfig is the committed checkpoint's config: registry defaults.
var lenetConfig = model.TrainConfig{TrainN: 2400, Epochs: 6, Seed: 1}

func loadLeNet(withNoise bool) (*netEnv, error) {
	noise := ""
	if withNoise {
		noise = lenetNoise
	}
	return loadNet("lenet", "conv2", lenetConfig, filepath.Dir(lenetWeights), noise)
}

func loadCifar() (*netEnv, error) {
	return loadNet("cifar", "conv3", cifarPretrain, prepDir, cifarNoise)
}

// noiseConfig is the registry's tuned noise-training config for a network.
func noiseConfig(b model.Benchmark, seed int64) core.NoiseConfig {
	return core.NoiseConfig{
		Mu: b.NoiseMu, Scale: b.NoiseScale, Lambda: b.Lambda,
		PrivacyTarget: b.PrivacyTarget, LR: b.NoiseLR, Epochs: b.NoiseEpochs,
		Seed: seed,
	}
}

// prepare builds, once per checkout, the artifacts the serving workloads
// deploy: LeNet's stored noise collection, the reduced CifarNet weights
// and CifarNet's stored noise collection. Each is written atomically and
// skipped when present, so only the first run pays for it.
func prepare() error {
	if err := os.MkdirAll(prepDir, 0o755); err != nil {
		return err
	}
	if !exists(lenetNoise) {
		e, err := loadLeNet(false)
		if err != nil {
			return err
		}
		col := core.Collect(e.split, e.pre.Train, noiseConfig(e.bench, 1), lenetNoiseMembers, 0)
		if err := writeNoise(lenetNoise, col); err != nil {
			return err
		}
	}
	weights := checkpoint("cifar", cifarPretrain, prepDir)
	if !exists(weights) {
		bench, err := model.BenchmarkByName("cifar")
		if err != nil {
			return err
		}
		pre, err := model.Train(bench.Spec, cifarPretrain)
		if err != nil {
			return err
		}
		tmp := weights + ".tmp"
		if err := nn.SaveFile(pre.Net, tmp); err != nil {
			return err
		}
		if err := os.Rename(tmp, weights); err != nil {
			return err
		}
	}
	if !exists(cifarNoise) {
		e, err := loadNet("cifar", "conv3", cifarPretrain, prepDir, "")
		if err != nil {
			return err
		}
		col := core.Collect(e.split, e.pre.Train, noiseConfig(e.bench, 1), cifarNoiseMembers, 0)
		if err := writeNoise(cifarNoise, col); err != nil {
			return err
		}
	}
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func writeNoise(path string, src core.NoiseSource) error {
	var buf bytes.Buffer
	if err := core.EncodeNoiseSource(&buf, src); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// noiseDigest returns the SHA-256 of a noise source's wire encoding and
// the encoding's length.
func noiseDigest(src core.NoiseSource) (string, int, error) {
	var buf bytes.Buffer
	if err := core.EncodeNoiseSource(&buf, src); err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Len(), nil
}

// processStart approximates process start: package initialization.
var processStart = time.Now()

// setupTimes runs setup reps times, closing all but the last environment,
// and returns that one with the median set-up time. The first set-up is
// timed from process start.
func setupTimes[E any](reps int, setup func() (E, error), closeEnv func(E)) (E, float64, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		e, err := setup()
		if err != nil {
			return env, 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < reps-1 {
			closeEnv(e)
		} else {
			env = e
		}
		runtime.GC() // leave no set-up garbage for the timed phase to collect
	}
	sorted := append([]float64(nil), secs...)
	sort.Float64s(sorted)
	return env, sorted[len(sorted)/2], secs, nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// memDelta is the allocator activity between two points.
type memDelta struct {
	allocs, bytes uint64
	gcs           uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocs: after.Mallocs - before.Mallocs,
		bytes:  after.TotalAlloc - before.TotalAlloc,
		gcs:    after.NumGC - before.NumGC,
	}
}

// meta describes the run for the record.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUModel   string             `json:"cpu_model"`
	SetupRuns  []float64          `json:"setup_runs_s,omitempty"`
	Samples    map[string]int     `json:"samples"`
	Notes      map[string]string  `json:"notes,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

func newMeta(cfg runConfig) *meta {
	return &meta{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(),
		Samples:  map[string]int{}, Notes: map[string]string{}, Extra: map[string]float64{},
	}
}

// commit reads the VCS revision the toolchain stamped into the binary.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
