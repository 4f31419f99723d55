package service

import "os"

// storeFS is the filesystem seam under the result store's disk layer. Every
// IO the store performs goes through this interface, so the fault-injecting
// FaultFS can exercise each failure path deterministically in unit tests —
// torn writes, failed renames, unreadable files — without touching a real
// disk's error behavior.
type storeFS interface {
	MkdirAll(dir string) error
	ReadFile(path string) ([]byte, error)
	// WriteFileSync creates (or truncates) path, writes data and fsyncs the
	// file before closing, so a rename that follows publishes fully-durable
	// bytes — a crash after the rename can never expose a torn bundle.
	WriteFileSync(path string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
}

// osFS is the real-filesystem storeFS.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// fsync before close: the subsequent rename must only ever publish
	// bytes that are durable, or a crash between rename and writeback
	// would leave a named-but-torn bundle.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}
