package mapreduce

import (
	"bytes"
	"fmt"
	"sync"
)

// The job table. Map and reduce functions cannot cross the wire, so a
// TCP worker finds a task's job by name in its own process: one table of
// factories, filled by RegisterFactory. A factory rebuilds the job from
// an opaque configuration blob that travels with every task (Job.Conf) —
// the analogue of Hadoop shipping the JobConf with the job jar — which is
// what makes workers usable across OS processes; map/reduce input data
// must then travel in the records themselves. Register is the factory
// that ignores the blob and returns a job whose closures already hold
// their data, which only works when master and workers share an address
// space.
//
// Workers build a job once per distinct configuration and cache it.

// JobFactory rebuilds a job from its configuration blob. conf is the
// factory's to keep, not to change: a worker builds from a heap copy of
// the task's blob, the one its job cache holds, never from the task's
// frame.
type JobFactory func(conf []byte) (*Job, error)

// RegisterFactory installs a factory under name, replacing — together
// with whatever it built — any factory registered under that name
// before. Worker processes must call this (typically from the same
// package init/main as the master) before serving tasks for the job.
func RegisterFactory(name string, factory JobFactory) {
	if name == "" {
		//lint:ignore panicfree registration happens at process start-up; a nameless factory is an API-misuse bug that must fail loudly before any task runs
		panic("mapreduce: RegisterFactory needs a name")
	}
	factories.Store(name, factory)
	builtJobs.Delete(name)
}

// Register makes a closure-carrying job available to TCP workers in this
// process, under its Name. It must be called before RunWorker receives
// tasks for the job; re-registering a name replaces the previous job.
func Register(job *Job) {
	RegisterFactory(job.Name, func([]byte) (*Job, error) { return job, nil })
}

var factories sync.Map // string -> JobFactory

// builtEntry caches the most recent factory build for one job name.
// Every task of a TCP phase carries the same Conf, so caching the last
// build per name hits on the hot path without the old scheme's
// per-task name+conf key-string allocation; a changed Conf (a new job
// generation under the same name) simply rebuilds and replaces it.
type builtEntry struct {
	mu   sync.Mutex
	conf []byte
	job  *Job
}

// builtJobs caches worker-side jobs per name.
var builtJobs sync.Map // string -> *builtEntry

// resolveJob returns the runnable job for a task: the registered
// factory's build for the task's configuration.
func resolveJob(name string, conf []byte) (*Job, error) {
	v, loaded := builtJobs.Load(name)
	if !loaded {
		v, _ = builtJobs.LoadOrStore(name, &builtEntry{})
	}
	entry := v.(*builtEntry)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.job != nil && bytes.Equal(entry.conf, conf) {
		return entry.job, nil
	}
	f, ok := factories.Load(name)
	if !ok {
		return nil, fmt.Errorf("job %q not registered on worker", name)
	}
	owned := bytes.Clone(conf) // conf aliases the task's frame on a TCP worker
	job, err := f.(JobFactory)(owned)
	if err != nil {
		return nil, fmt.Errorf("job factory %q: %w", name, err)
	}
	if job.Name != name { // a Registered job is its caller's, and already named: not written to
		job.Name = name
	}
	entry.conf = owned
	entry.job = job
	return job, nil
}
