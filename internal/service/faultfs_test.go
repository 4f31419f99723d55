package service

import (
	"fmt"
	"sync"
)

// FaultFS wraps a storeFS and fails selected operations on demand — the
// deterministic fault injector behind the store's IO-failure tests. Arm an
// operation with Fail and every call of that kind returns the given error
// until Heal; the underlying filesystem is not touched by failed calls, so
// a test can simulate a full disk (writes fail, reads succeed) or a
// read-corrupting medium precisely and repeatably.
//
// Operation names: "mkdir", "read", "write", "rename", "remove", "readdir".
type FaultFS struct {
	// FS is the wrapped filesystem (nil = the real one).
	FS storeFS

	mu   sync.Mutex
	fail map[string]error
	ops  map[string]int
}

// Fail arms op: every subsequent call of that operation returns err.
func (f *FaultFS) Fail(op string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == nil {
		f.fail = make(map[string]error)
	}
	if err == nil {
		err = fmt.Errorf("faultfs: injected %s failure", op)
	}
	f.fail[op] = err
}

// Heal disarms op; subsequent calls pass through again.
func (f *FaultFS) Heal(op string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.fail, op)
}

// Ops reports how many calls of op were attempted (failed or not).
func (f *FaultFS) Ops(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// check counts the attempt and returns the armed error, if any.
func (f *FaultFS) check(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ops == nil {
		f.ops = make(map[string]int)
	}
	f.ops[op]++
	return f.fail[op]
}

func (f *FaultFS) inner() storeFS {
	if f.FS != nil {
		return f.FS
	}
	return osFS{}
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.check("mkdir"); err != nil {
		return err
	}
	return f.inner().MkdirAll(dir)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.check("read"); err != nil {
		return nil, err
	}
	return f.inner().ReadFile(path)
}

func (f *FaultFS) WriteFileSync(path string, data []byte) error {
	if err := f.check("write"); err != nil {
		return err
	}
	return f.inner().WriteFileSync(path, data)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename"); err != nil {
		return err
	}
	return f.inner().Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.check("remove"); err != nil {
		return err
	}
	return f.inner().Remove(path)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.check("readdir"); err != nil {
		return nil, err
	}
	return f.inner().ReadDir(dir)
}
