package multival

// End-to-end tests of the command-line tools: the CADP-style pipeline
// generate -> reduce -> compare -> evaluate -> solve over .aut files,
// exercised exactly as a user would from the shell, through the shared
// cmd/internal/cli toolkit. Includes golden-output checks (the .aut
// writer is canonical, so outputs are byte-deterministic) and the
// -timeout cancellation path.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runTool invokes a cmd/<tool> via `go run` and returns stdout.
func runTool(t *testing.T, expectOK bool, args ...string) string {
	t.Helper()
	out, stderr, err := runToolCapture(t, args...)
	if expectOK && err != nil {
		t.Fatalf("%v failed: %v\n%s", args, err, stderr)
	}
	if !expectOK && err == nil {
		t.Fatalf("%v unexpectedly succeeded", args)
	}
	return out
}

// runToolCapture invokes a cmd/<tool> via `go run` and returns stdout,
// stderr and the exit error, if any.
func runToolCapture(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + args[0]}, args[1:]...)...)
	cmd.Dir = "."
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err = cmd.Run()
	return outBuf.String(), errBuf.String(), err
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "buf.lotos")
	if err := os.WriteFile(spec, []byte(`
process Buf :=
    put ?x:0..1 ; get !x ; Buf
endproc
behaviour Buf
`), 0o644); err != nil {
		t.Fatal(err)
	}
	rawAut := filepath.Join(dir, "buf.aut")
	minAut := filepath.Join(dir, "buf.min.aut")

	// generate from the DSL.
	runTool(t, true, "generate", "-lotos", spec, "-o", rawAut)
	if _, err := os.Stat(rawAut); err != nil {
		t.Fatal(err)
	}

	// reduce modulo strong bisimulation.
	out := runTool(t, true, "reduce", "-rel", "strong", rawAut)
	if err := os.WriteFile(minAut, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	// compare: the quotient is equivalent to the original.
	out = runTool(t, true, "compare", "-rel", "strong", rawAut, minAut)
	if !strings.Contains(out, "TRUE") {
		t.Fatalf("compare output: %q", out)
	}

	// evaluate: deadlock freedom holds.
	out = runTool(t, true, "evaluate", "-deadlock", minAut)
	if !strings.Contains(out, "TRUE") {
		t.Fatalf("evaluate output: %q", out)
	}
	// ... and an absurd reachability fails with exit code 1.
	runTool(t, false, "evaluate", "-reachable", "nonexistent", minAut)

	// solve: turn put/get into rates and read the steady state.
	out = runTool(t, true, "solve", "-rate", "put=1", "-rate", "get=2", "-marker", "get", minAut)
	if !strings.Contains(out, "throughputs:") || !strings.Contains(out, "steady-state") {
		t.Fatalf("solve output: %q", out)
	}
}

// goldenBufAut is the canonical serialization of the one-place buffer:
// the .aut writer is deterministic, so generate and reduce must
// reproduce it byte for byte.
const goldenBufAut = `des (0, 4, 3)
(0, "put !0", 1)
(0, "put !1", 2)
(1, "get !0", 0)
(2, "get !1", 0)
`

// TestCLIGoldenOutputs drives generate | reduce through the shared cli
// path and compares the exact bytes against the golden serialization.
func TestCLIGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "buf.lotos")
	if err := os.WriteFile(spec, []byte(`
process Buf :=
    put ?x:0..1 ; get !x ; Buf
endproc
behaviour Buf
`), 0o644); err != nil {
		t.Fatal(err)
	}

	// generate to stdout: golden bytes.
	out := runTool(t, true, "generate", "-lotos", spec)
	if out != goldenBufAut {
		t.Fatalf("generate output:\n%q\nwant:\n%q", out, goldenBufAut)
	}

	// generate -o file, then reduce (already minimal modulo strong):
	// same golden bytes, via the -o path of the toolkit.
	rawAut := filepath.Join(dir, "buf.aut")
	minAut := filepath.Join(dir, "buf.min.aut")
	runTool(t, true, "generate", "-lotos", spec, "-o", rawAut)
	runTool(t, true, "reduce", "-rel", "strong", "-o", minAut, rawAut)
	got, err := os.ReadFile(minAut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenBufAut {
		t.Fatalf("reduce output:\n%q\nwant:\n%q", got, goldenBufAut)
	}
}

// TestCLICompose drives the compose tool: the one-place buffer
// synchronized with itself on both gates runs in lockstep, so the sharded
// product must reproduce the golden serialization byte for byte — the
// CLI-level witness of the generator's determinism contract.
func TestCLICompose(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	aut := filepath.Join(dir, "buf.aut")
	if err := os.WriteFile(aut, []byte(goldenBufAut), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "3"} {
		out := runTool(t, true, "compose", "-sync", "put,get", "-workers", workers, aut, aut)
		if out != goldenBufAut {
			t.Fatalf("compose -workers %s output:\n%q\nwant:\n%q", workers, out, goldenBufAut)
		}
	}
	// -rel minimizes the product; -hide with a bound exercises the
	// remaining flags.
	out := runTool(t, true, "compose", "-sync", "put,get", "-hide", "put", "-rel", "branching", "-max-states", "64", aut, aut)
	if !strings.Contains(out, "des (") {
		t.Fatalf("compose -rel output: %q", out)
	}
}

// TestCLITimeoutAborts: an immediate -timeout cancels the pipeline and
// the tool reports the deadline instead of producing output.
func TestCLITimeoutAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	aut := filepath.Join(dir, "m.aut")
	if err := os.WriteFile(aut, []byte(goldenBufAut), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runToolCapture(t, "reduce", "-timeout", "1ns", "-rel", "branching", aut)
	if err == nil {
		t.Fatal("reduce with an expired timeout succeeded")
	}
	if !strings.Contains(stderr, "context deadline exceeded") {
		t.Fatalf("stderr = %q, want a deadline error", stderr)
	}
}

// TestExperimentsTimeoutInsideExperiment: the -timeout budget cancels a
// running experiment (E2's 65k-state router generation), not only the
// experiments that have not started yet.
func TestExperimentsTimeoutInsideExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, _, err := runToolCapture(t, "experiments", "-timeout", "50ms", "E2")
	if err == nil {
		t.Fatal("experiments with a 50ms budget succeeded")
	}
	if !strings.Contains(out, "==== E2") || !strings.Contains(out, "ERROR: ") ||
		!strings.Contains(out, "context deadline exceeded") {
		t.Fatalf("output = %q, want E2 to start and fail on the deadline", out)
	}
	if strings.Contains(out, "65329") {
		t.Fatalf("E2 finished the 65k-state router despite the deadline:\n%s", out)
	}
}

// TestCLISolveTransient exercises the -at flag through the pipeline
// path.
func TestCLISolveTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	aut := filepath.Join(dir, "m.aut")
	if err := os.WriteFile(aut, []byte(goldenBufAut), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, true, "solve", "-rate", "put=1", "-rate", "get=2", "-marker", "get", "-at", "0.5", aut)
	if !strings.Contains(out, "state probabilities at t=0.5") || !strings.Contains(out, "throughputs:") {
		t.Fatalf("solve -at output: %q", out)
	}
}

func TestCLIGenerateBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	for _, model := range []string{"xstream", "faust-fork", "fame-coherence"} {
		out := filepath.Join(dir, model+".aut")
		runTool(t, true, "generate", "-model", model, "-o", out)
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty output", model)
		}
	}
	// Unknown model rejected.
	runTool(t, false, "generate", "-model", "nope")
}

func TestCLICompareDetectsDifference(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.aut")
	b := filepath.Join(dir, "b.aut")
	if err := os.WriteFile(a, []byte("des (0, 1, 2)\n(0, x, 1)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("des (0, 1, 2)\n(0, y, 1)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, false, "compare", "-rel", "trace", a, b)
	if !strings.Contains(out, "FALSE") || !strings.Contains(out, "distinguishing trace") {
		t.Fatalf("compare output: %q", out)
	}
}

// TestCLISolveJSON: -json replaces the text report with the serve wire
// format (one schema across CLI and HTTP).
func TestCLISolveJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	aut := filepath.Join(dir, "m.aut")
	if err := os.WriteFile(aut, []byte(goldenBufAut), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, true, "solve", "-rate", "put=1", "-rate", "get=2", "-marker", "get", "-json", aut)
	var res struct {
		Kind          string             `json:"kind"`
		CTMCStates    int                `json:"ctmc_states"`
		IMCStates     int                `json:"imc_states"`
		Throughputs   map[string]float64 `json:"throughputs"`
		Probabilities []struct {
			P float64 `json:"p"`
		} `json:"probabilities"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("solve -json output is not JSON: %v\n%s", err, out)
	}
	if res.Kind != "steady" || res.CTMCStates == 0 || res.IMCStates == 0 {
		t.Fatalf("result = %+v", res)
	}
	total := 0.0
	for _, sp := range res.Probabilities {
		total += sp.P
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("probabilities sum to %v:\n%s", total, out)
	}
	if len(res.Throughputs) == 0 {
		t.Fatalf("no throughputs:\n%s", out)
	}
	// The transient variant records the query time.
	out = runTool(t, true, "solve", "-rate", "put=1", "-rate", "get=2", "-marker", "get", "-at", "0.5", "-json", aut)
	if !strings.Contains(out, `"kind": "transient"`) || !strings.Contains(out, `"at": 0.5`) {
		t.Fatalf("transient -json output: %s", out)
	}
}

// TestCLIEvaluateJSON: the verdict as wire JSON, exit codes unchanged.
func TestCLIEvaluateJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	aut := filepath.Join(dir, "m.aut")
	if err := os.WriteFile(aut, []byte(goldenBufAut), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, true, "evaluate", "-deadlock", "-json", aut)
	var res struct {
		Holds     bool   `json:"holds"`
		Formula   string `json:"formula"`
		NumStates int    `json:"num_states"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("evaluate -json output is not JSON: %v\n%s", err, out)
	}
	if !res.Holds || res.NumStates != 3 || res.Formula == "" {
		t.Fatalf("verdict = %+v", res)
	}
	// A failed property still exits 1, with holds=false in the body.
	out = runTool(t, false, "evaluate", "-reachable", "nonexistent", "-json", aut)
	if !strings.Contains(out, `"holds": false`) {
		t.Fatalf("failing evaluate -json output: %s", out)
	}
}

// TestCLISweepJSON: a small grid end-to-end through cmd/sweep with the
// JSON schema locked — field renames in the sweep wire format break this
// test, as clients depend on them.
func TestCLISweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out := runTool(t, true, "sweep", "-family", "xstream",
		"-p", "capacity=2", "-grid", "mu=1,2", "-grid", "lambda=0.5,1.5", "-json")
	var resp struct {
		Family         string `json:"family"`
		GridPoints     int    `json:"grid_points"`
		Completed      int    `json:"completed"`
		Failed         int    `json:"failed"`
		DistinctModels int    `json:"distinct_models"`
		Builds         struct {
			Family     int `json:"family"`
			Functional int `json:"functional"`
			Perf       int `json:"perf"`
			Measure    int `json:"measure"`
		} `json:"builds"`
		Results []struct {
			Index  int            `json:"index"`
			Point  map[string]any `json:"point"`
			Result *struct {
				Kind        string             `json:"kind"`
				Throughputs map[string]float64 `json:"throughputs"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("sweep -json output is not JSON: %v\n%s", err, out)
	}
	if resp.Family != "xstream" || resp.GridPoints != 4 || resp.Completed != 4 || resp.Failed != 0 {
		t.Fatalf("response = %+v", resp)
	}
	// One structural configuration; lambda and mu are rate parameters,
	// so the model and composition layers are shared across the grid.
	if resp.DistinctModels != 1 || resp.Builds.Family != 1 || resp.Builds.Functional != 1 {
		t.Fatalf("sharing evidence = %+v", resp)
	}
	if resp.Builds.Measure != 4 {
		t.Fatalf("measure builds = %d, want one per point", resp.Builds.Measure)
	}
	for i, r := range resp.Results {
		if r.Index != i || r.Result == nil || r.Result.Kind != "steady" {
			t.Fatalf("results[%d] = %+v", i, r)
		}
		if len(r.Point) != 2 || r.Point["mu"] == nil || r.Point["lambda"] == nil {
			t.Fatalf("results[%d].point = %v", i, r.Point)
		}
		if len(r.Result.Throughputs) == 0 {
			t.Fatalf("results[%d] has no throughputs", i)
		}
	}
	// A bad grid is a usage error: exit 2 before any solving.
	runTool(t, false, "sweep", "-family", "xstream", "-grid", "bogus=1")
	// -list names every registered family.
	out = runTool(t, true, "sweep", "-list")
	for _, fam := range []string{"chp", "fame", "faust", "lotos", "xstream"} {
		if !strings.Contains(out, fam+"\n") {
			t.Fatalf("sweep -list misses %s:\n%s", fam, out)
		}
	}
}

// TestCLIEvaluateFit: phase-type fitting from a sample file, with the
// rates spelled as sweep-usable parameters.
func TestCLIEvaluateFit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	samples := filepath.Join(dir, "samples.txt")
	if err := os.WriteFile(samples, []byte("1.0 1.0 1.0 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, true, "evaluate", "-fit", "-json", samples)
	var res struct {
		N      int                `json:"n"`
		Mean   float64            `json:"mean"`
		Phases int                `json:"phases"`
		Params map[string]float64 `json:"params"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("evaluate -fit -json output is not JSON: %v\n%s", err, out)
	}
	// Zero variance: the fixed-delay Erlang with mean preserved.
	if res.N != 4 || res.Mean != 1.0 || res.Phases == 0 {
		t.Fatalf("fit = %+v", res)
	}
	if rate, ok := res.Params["rate"]; !ok || rate != float64(res.Phases) {
		t.Fatalf("params = %v, want rate == phases/mean", res.Params)
	}
	// Human mode mentions the sweep spelling; garbage input exits 2.
	out = runTool(t, true, "evaluate", "-fit", samples)
	if !strings.Contains(out, "param:") || !strings.Contains(out, "sweep use:") {
		t.Fatalf("evaluate -fit output: %s", out)
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1.0 oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runTool(t, false, "evaluate", "-fit", bad)
}

// TestExperimentsGolden pins the whole reproduction: the output of
// cmd/experiments (E1–E11) must match testdata/experiments.golden byte
// for byte, except for two floating-point residual columns — E5's
// max|err| against the M/M/1/K closed form and E9's throughput-delta
// between lumped and unlumped pipelines — which depend on rounding and
// are only required to stay at or below 1e-9.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run and runs every experiment")
	}
	wantRaw, err := os.ReadFile(filepath.Join("cmd", "experiments", "testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(runTool(t, true, "experiments"), "\n")
	want := strings.Split(string(wantRaw), "\n")
	if len(got) != len(want) {
		t.Fatalf("experiments printed %d lines, golden has %d", len(got), len(want))
	}
	section := ""
	for i := range want {
		if strings.HasPrefix(want[i], "==== ") {
			section = strings.Fields(want[i])[1]
		}
		if (section == "E5:" || section == "E9:") && isDataRow(want[i]) {
			gotHead, gotErr := splitLastField(got[i])
			wantHead, _ := splitLastField(want[i])
			if gotHead != wantHead {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, got[i], want[i])
				continue
			}
			v, err := strconv.ParseFloat(gotErr, 64)
			if err != nil || math.Abs(v) > 1e-9 {
				t.Errorf("line %d: residual %q exceeds 1e-9", i+1, gotErr)
			}
			continue
		}
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, got[i], want[i])
		}
	}
}

// isDataRow reports whether a table line starts with an integer (a row
// rather than a column header).
func isDataRow(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return false
	}
	_, err := strconv.Atoi(f[0])
	return err == nil
}

// splitLastField splits a table row into everything before its last
// whitespace-separated field and that field.
func splitLastField(line string) (head, last string) {
	i := strings.LastIndexAny(line, " \t")
	return line[:i+1], line[i+1:]
}
