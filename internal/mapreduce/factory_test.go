package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// scaleJobFactory builds a job that multiplies integer values by the
// factor carried in its Conf — a minimal closure-free job.
func scaleJobFactory(conf []byte) (*Job, error) {
	if len(conf) != 4 {
		return nil, errors.New("want 4-byte conf")
	}
	factor := int(binary.LittleEndian.Uint32(conf))
	return &Job{
		NumReducers: 2,
		Map: func(key string, value []byte, emit Emit) error {
			v, err := strconv.Atoi(string(value))
			if err != nil {
				return err
			}
			emit(key, []byte(strconv.Itoa(v*factor)))
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
	}, nil
}

func confFor(factor int) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(factor))
	return buf[:]
}

func TestFactoryJobOverTCP(t *testing.T) {
	RegisterFactory("factory-scale", scaleJobFactory)
	m, stop := startCluster(t, 2)
	defer stop()

	input := []Pair{
		{Key: "a", Value: []byte("1")},
		{Key: "a", Value: []byte("2")},
		{Key: "b", Value: []byte("5")},
	}
	for _, factor := range []int{2, 10} {
		job, err := scaleJobFactory(confFor(factor))
		if err != nil {
			t.Fatal(err)
		}
		job.Name = "factory-scale"
		job.Conf = confFor(factor)
		out, _, err := m.Run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"a": 3 * factor, "b": 5 * factor}
		for _, p := range out {
			got, _ := strconv.Atoi(string(p.Value))
			if got != want[p.Key] {
				t.Fatalf("factor %d: %s = %d, want %d", factor, p.Key, got, want[p.Key])
			}
		}
	}
}

func TestFactoryMissingOnMaster(t *testing.T) {
	m, stop := startCluster(t, 1)
	defer stop()
	job, _ := scaleJobFactory(confFor(2))
	job.Name = "never-a-factory"
	job.Conf = confFor(2)
	_, _, err := m.Run(job, []Pair{{Key: "x", Value: []byte("1")}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestFactoryConfErrorSurfaces(t *testing.T) {
	RegisterFactory("factory-bad-conf", scaleJobFactory)
	m, stop := startCluster(t, 1)
	defer stop()
	job, _ := scaleJobFactory(confFor(1))
	job.Name = "factory-bad-conf"
	job.Conf = []byte("short") // 5 bytes: factory rejects on the worker
	_, _, err := m.Run(job, []Pair{{Key: "x", Value: []byte("1")}})
	if err == nil || !strings.Contains(err.Error(), "4-byte conf") {
		t.Fatalf("err = %v", err)
	}
}

func TestFactoryBuildCached(t *testing.T) {
	var builds atomic.Int32
	RegisterFactory("factory-counted", func(conf []byte) (*Job, error) {
		builds.Add(1)
		return scaleJobFactory(conf)
	})
	conf := confFor(3)
	j1, err := resolveJob("factory-counted", conf)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := resolveJob("factory-counted", conf)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("same conf must return the cached job")
	}
	if builds.Load() != 1 {
		t.Fatalf("factory ran %d times, want 1", builds.Load())
	}
	// A different conf builds a fresh job.
	if _, err := resolveJob("factory-counted", confFor(4)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("factory ran %d times, want 2", builds.Load())
	}
}

// TestFactoryKeepsConf: a factory may keep its conf. A worker unmaps
// each task's frame once the task is answered, so a job built from the
// frame's own conf bytes would read freed memory on the next task; the
// tasks here grow, so no later frame is mapped where the first was.
func TestFactoryKeepsConf(t *testing.T) {
	want := bytes.Repeat([]byte("conf"), 4096)
	RegisterFactory("factory-keeps-conf", func(conf []byte) (*Job, error) {
		return &Job{NumReducers: 1, Reduce: IdentityReduceFunc,
			Map: func(key string, value []byte, emit Emit) error {
				if !bytes.Equal(conf, want) {
					return errors.New("the conf kept from the job's build changed")
				}
				emit(key, []byte(strconv.Itoa(len(value))))
				return nil
			}}, nil
	})
	m, stop := startCluster(t, 1)
	defer stop()
	input := make([]Pair, 8)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: make([]byte, (i+1)<<14)}
	}
	job := &Job{Name: "factory-keeps-conf", Conf: want, SplitSize: 1, Map: IdentityMapFunc, Reduce: IdentityReduceFunc}
	out, _, err := m.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(input) {
		t.Fatalf("%d outputs for %d inputs", len(out), len(input))
	}
}

// TestRegisterReplacesBetweenJobs re-registers a name with a different
// closure between two jobs on one master: the workers have built and
// cached the first job by then, and must run the second.
func TestRegisterReplacesBetweenJobs(t *testing.T) {
	m, stop := startCluster(t, 2)
	defer stop()
	for _, tag := range []string{"first", "second"} {
		job := &Job{
			Name: "re-registered",
			Map: func(key string, value []byte, emit Emit) error {
				emit(key, []byte(tag))
				return nil
			},
			Reduce: IdentityReduceFunc,
		}
		Register(job)
		out, _, err := m.Run(job, []Pair{{Key: "k"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || string(out[0].Value) != tag {
			t.Fatalf("after registering the %s closure the job emitted %v", tag, out)
		}
	}
}

func TestRegisterFactoryRequiresName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegisterFactory("", scaleJobFactory)
}
