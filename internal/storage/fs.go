package storage

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the storage layer needs. The indirection
// exists so the fault-injection filesystem (internal/storage/faultfs) can
// stand in for the real one in crash-recovery tests.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// FS is the filesystem surface the storage layer needs: open-or-create,
// atomic rename (used for the meta file's tmp+rename protocol), remove and
// anonymous temporary files.
type FS interface {
	// OpenFile opens name for reading and writing, creating it if absent.
	OpenFile(name string) (File, error)
	// Rename atomically replaces newname with oldname. Implementations must
	// make the rename durable before returning (the real implementation
	// fsyncs the parent directory).
	Rename(oldname, newname string) error
	// Remove deletes name; it is not an error if name does not exist.
	Remove(name string) error
	// CreateTemp creates a file no name reaches, gone once it is closed or
	// the process exits (a memory-mode pager's spill file).
	CreateTemp() (File, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenFile implements FS.
func (OSFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Rename implements FS. The parent directory is fsynced so the rename
// survives a crash (POSIX does not promise durability for rename alone).
func (OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(newname)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error {
	err := os.Remove(name)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// CreateTemp implements FS: a file in the temporary directory, unlinked as
// soon as it is open.
func (OSFS) CreateTemp() (File, error) {
	f, err := os.CreateTemp("", "oldelephant-spill-")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return osFile{f}, nil
}
