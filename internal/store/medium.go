package store

import (
	"io"
	"os"
	"sync"
)

// fsys is File's I/O seam: the calls the log makes on its directory.
// osFS is the operating system and memFS process memory; a Faults layer
// stands in for either in crash tests.
type fsys interface {
	mkdirAll(dir string) error
	list(dir string) ([]string, error)
	open(path string, flag int) (segIO, int64, error) // as os.OpenFile does, and its length
	remove(path string) error
	syncDir(dir string) error
}

// segIO is a segment file as the log uses it. *os.File is one.
type segIO interface {
	io.Reader // the open pass's scan
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the seam's real side.
type osFS struct{}

func (osFS) mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) list(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) open(path string, flag int) (segIO, int64, error) {
	fh, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, 0, err
	}
	return fh, info.Size(), nil
}

func (osFS) remove(path string) error { return os.Remove(path) }

// syncDir makes the creation or removal of a name in dir durable.
func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// memFS is a medium in process memory: one directory of segments, each
// its bytes and the length of them that an fsync made durable. Every name
// is durable once created or removed. Closing a segment keeps what was
// written, as the operating system keeps a dead process's writes; only
// powerFail loses what no fsync covered. One lock guards it all.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one segment of a memFS.
type memFile struct {
	data    memBytes
	durable int64 // the prefix an fsync covered
}

// memBytes is a file's bytes in memory. What lies between its length and
// its capacity is zero.
type memBytes []byte

func (*memFS) mkdirAll(string) error { return nil }
func (*memFS) syncDir(string) error  { return nil }

func (m *memFS) list(string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	return names, nil
}

func (m *memFS) open(path string, flag int) (segIO, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	switch {
	case f == nil && flag&os.O_CREATE == 0:
		return nil, 0, os.ErrNotExist
	case f != nil && flag&os.O_EXCL != 0:
		return nil, 0, os.ErrExist
	case f == nil:
		f = new(memFile)
		m.files[path] = f
	}
	return &memSeg{m: m, f: f}, int64(len(f.data)), nil
}

func (m *memFS) remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		return os.ErrNotExist
	}
	delete(m.files, path)
	return nil
}

// powerFail cuts every segment to what an fsync made durable.
func (m *memFS) powerFail() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data.resize(f.durable)
	}
}

// memSeg is an open segment of a memFS: the file, and the scan's offset.
type memSeg struct {
	m   *memFS
	f   *memFile
	pos int64
}

func (s *memSeg) Read(b []byte) (int, error) {
	n, err := s.ReadAt(b, s.pos)
	s.pos += int64(n)
	return n, err
}

func (s *memSeg) ReadAt(b []byte, off int64) (int, error) {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if n := s.f.data.readAt(b, off); n < len(b) {
		return n, io.EOF
	}
	return len(b), nil
}

func (s *memSeg) WriteAt(b []byte, off int64) (int, error) {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.f.data.writeAt(b, off)
	return len(b), nil
}

func (s *memSeg) Truncate(size int64) error {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.f.data.resize(size)
	s.f.durable = min(s.f.durable, size)
	return nil
}

func (s *memSeg) Sync() error {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.f.durable = int64(len(s.f.data))
	return nil
}

func (*memSeg) Close() error { return nil }

// readAt copies what lies at off into b, as far as m goes.
func (m memBytes) readAt(b []byte, off int64) int {
	if off >= int64(len(m)) {
		return 0
	}
	return copy(b, m[off:])
}

// writeAt copies b into m at off, growing m as needed.
func (m *memBytes) writeAt(b []byte, off int64) {
	m.resize(max(int64(len(*m)), off+int64(len(b))))
	copy((*m)[off:], b)
}

// resize makes m size bytes long, with zeros where it grows. Bytes that
// outgrow their capacity move to twice as much, so that a write allocates
// only when m doubles and copies each byte once on average.
func (m *memBytes) resize(size int64) {
	n := int(size)
	if n < len(*m) {
		clear((*m)[n:])
	} else if n > cap(*m) {
		grown := make(memBytes, n, max(n, 2*cap(*m), 4<<10))
		copy(grown, *m)
		*m = grown
	}
	*m = (*m)[:n]
}
