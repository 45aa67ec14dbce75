package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// repeatExpander expands a reference "c:n" into n copies of the byte c
// and refuses any other ("!" among them) with errRepeatRef; skew makes
// Expand write that many bytes more (or, negative, fewer) than Len
// announced.
type repeatExpander struct{ skew int }

var errRepeatRef = errors.New("repeat expander refuses the reference")

func (repeatExpander) parse(ref []byte) (byte, int, error) {
	c, count, ok := strings.Cut(string(ref), ":")
	n, err := strconv.Atoi(count)
	if !ok || len(c) != 1 || err != nil || n < 0 {
		return 0, 0, errRepeatRef
	}
	return c[0], n, nil
}

func (x repeatExpander) Len(ref []byte) int {
	_, n, _ := x.parse(ref)
	return n
}

func (x repeatExpander) Expand(w io.Writer, ref []byte) error {
	c, n, err := x.parse(ref)
	if err != nil {
		return err
	}
	_, err = w.Write(bytes.Repeat([]byte{c}, max(n+x.skew, 0)))
	return err
}

// repeatRefs is count references, a few large enough that their task
// frames pass CompressThreshold, and the values they expand to.
func repeatRefs(count int) (refs, expanded []Pair) {
	for i := 0; i < count; i++ {
		c, n := byte('a'+i%26), (i%5)*3000
		key := strconv.Itoa(i)
		refs = append(refs, Pair{Key: key, Value: []byte(fmt.Sprintf("%c:%d", c, n))})
		expanded = append(expanded, Pair{Key: key, Value: bytes.Repeat([]byte{c}, n)})
	}
	return refs, expanded
}

// expandJobs are two jobs that read their input values: one maps each
// value to its length and first byte, one passes the input through an
// identity map to a reduce that does the same per group.
func expandJobs(name string) []*Job {
	describe := func(v []byte) []byte {
		if len(v) == 0 {
			return []byte("0")
		}
		return []byte(fmt.Sprintf("%d%c", len(v), v[0]))
	}
	return []*Job{
		{Name: name + "-map", NumReducers: 2, SplitSize: 3, Reduce: IdentityReduceFunc,
			Map: func(key string, value []byte, emit Emit) error {
				emit(key, describe(value))
				return nil
			}},
		{Name: name + "-reduce", NumReducers: 2, SplitSize: 3, Map: IdentityMapFunc, IdentityMap: true,
			Reduce: func(key string, values [][]byte, emit Emit) error {
				for _, v := range values {
					emit(key, describe(v))
				}
				return nil
			}},
	}
}

// TestExpandMatchesExpandedInput: a job that expands its references
// puts out exactly what it puts out run on the expanded values, in the
// map or behind an elided identity map, on Local and on TCP with and
// without compression.
func TestExpandMatchesExpandedInput(t *testing.T) {
	refs, expanded := repeatRefs(17)
	m, stop := startCluster(t, 2)
	defer stop()
	for _, job := range expandJobs("expand") {
		want, _, err := (&Local{}).Run(job, expanded)
		if err != nil {
			t.Fatal(err)
		}
		Register(job)
		for _, compress := range []bool{false, true} {
			xjob := *job
			xjob.Expand, xjob.Compress = repeatExpander{}, compress
			for name, exec := range map[string]Executor{"local": &Local{}, "tcp": m} {
				got, _, err := exec.Run(&xjob, refs)
				if err != nil {
					t.Fatalf("%s %s compress=%v: %v", job.Name, name, compress, err)
				}
				if !pairsEqual(got, want) {
					t.Fatalf("%s %s compress=%v:\n got %v\nwant %v", job.Name, name, compress, got, want)
				}
			}
		}
	}
	stop()
	checkNothingMapped(t)
}

// TestExpandFailureFailsTask: a reference its Expander refuses, or an
// expansion of other than its announced length, fails the job with
// that error on every executor — on TCP as the job's fault, not as a
// lost worker retried on every other one. The TCP master drops the
// connection whose frame it cut short, so every run gets a fresh
// cluster, and the dropped worker may fail to send the answer to a
// task it held.
func TestExpandFailureFailsTask(t *testing.T) {
	refs, _ := repeatRefs(9)
	refused := append(append([]Pair(nil), refs...), Pair{Key: "bad", Value: []byte("!")})
	cases := []struct {
		name  string
		x     repeatExpander
		input []Pair
		want  string
	}{
		{"refused", repeatExpander{}, refused, errRepeatRef.Error()},
		{"long", repeatExpander{skew: 1}, refs, "announced"},
		{"short", repeatExpander{skew: -1}, refs, "announced"},
	}
	for _, c := range cases {
		for _, job := range expandJobs("expand-fail-" + c.name) {
			Register(job)
			for _, compress := range []bool{false, true} {
				xjob := *job
				xjob.Expand, xjob.Compress = c.x, compress
				check := func(exec string, err error) {
					t.Helper()
					if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "all workers failed") {
						t.Fatalf("%s %s compress=%v: err = %v, want the expansion's %q", xjob.Name, exec, compress, err, c.want)
					}
				}
				_, _, err := (&Local{}).Run(&xjob, c.input)
				check("local", err)
				m, stop := startClusterReporting(t, 2, func(err error) {
					if !strings.Contains(err.Error(), "send result") {
						t.Errorf("worker: %v", err)
					}
				})
				_, _, err = m.Run(&xjob, c.input)
				stop()
				check("tcp", err)
			}
		}
	}
	checkNothingMapped(t)
}

// TestExpandValidation: an expanding job must run a task that sees its
// values expanded, and an identity map's combiner would see only the
// references.
func TestExpandValidation(t *testing.T) {
	for name, job := range map[string]*Job{
		"no task": {Name: "x", Map: IdentityMapFunc, Reduce: IdentityReduceFunc, IdentityMap: true, IdentityReduce: true,
			Expand: repeatExpander{}},
		"combined references": {Name: "x", Map: IdentityMapFunc, Reduce: IdentityReduceFunc, IdentityMap: true,
			Combine: IdentityReduceFunc, Expand: repeatExpander{}},
	} {
		if _, _, err := (&Local{}).Run(job, []Pair{{Key: "k", Value: []byte("a:1")}}); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", name, err)
		}
	}
}
