package efs

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"eden/internal/capability"
	"eden/internal/naming"
)

// PathFS layers the directory service over EFS files, completing §5's
// description of the Eden File System as "a user-level system for
// naming, storing and retrieving Eden objects": files are EFS objects,
// names are directory bindings, and paths resolve through ordinary
// directory invocations. The "files" bound under a directory may in
// fact be any objects; PathFS creates efs.file objects for paths it
// materializes itself.
type PathFS struct {
	c    *Client
	root capability.Capability
}

// ErrNotFile reports a path bound to an object PathFS cannot treat as
// an EFS file.
var ErrNotFile = errors.New("efs: path is not an EFS file")

// NewPathFS returns a path layer over the client's node rooted at the
// given directory (create one with naming.CreateRoot).
func NewPathFS(c *Client, root capability.Capability) *PathFS {
	return &PathFS{c: c, root: root}
}

// Root returns the root directory capability.
func (p *PathFS) Root() capability.Capability { return p.root }

// splitPath validates and splits a slash-separated path.
func splitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, fmt.Errorf("%w: empty path", naming.ErrBadName)
	}
	comps := strings.Split(path, "/")
	for _, c := range comps {
		if c == "" {
			return nil, fmt.Errorf("%w: empty component in %q", naming.ErrBadName, path)
		}
	}
	return comps, nil
}

// lookupDir resolves (creating if create is set) the chain of
// directories for all but the last path component, returning the
// parent directory and the final component.
func (p *PathFS) lookupDir(path string, create bool) (capability.Capability, string, error) {
	comps, err := splitPath(path)
	if err != nil {
		return capability.Capability{}, "", err
	}
	dir := p.root
	k := p.c.k
	for _, comp := range comps[:len(comps)-1] {
		next, err := naming.Lookup(k, dir, comp)
		if errors.Is(err, naming.ErrNotFound) && create {
			next, err = naming.Mkdir(k, dir, comp)
			if errors.Is(err, naming.ErrExists) {
				// Lost a race with a concurrent creator; use theirs.
				next, err = naming.Lookup(k, dir, comp)
			}
		}
		if err != nil {
			return capability.Capability{}, "", fmt.Errorf("efs: resolving %q at %q: %w", path, comp, err)
		}
		dir = next
	}
	return dir, comps[len(comps)-1], nil
}

// Create makes an empty EFS file at the path, creating intermediate
// directories, and returns its capability. It fails if the name is
// already bound.
func (p *PathFS) Create(path string) (capability.Capability, error) {
	dir, name, err := p.lookupDir(path, true)
	if err != nil {
		return capability.Capability{}, err
	}
	file, err := p.c.CreateFile()
	if err != nil {
		return capability.Capability{}, err
	}
	if err := naming.Bind(p.c.k, dir, name, file); err != nil {
		return capability.Capability{}, err
	}
	return file, nil
}

// Lookup resolves the path to the file (or other object) bound there.
func (p *PathFS) Lookup(path string) (capability.Capability, error) {
	dir, name, err := p.lookupDir(path, false)
	if err != nil {
		return capability.Capability{}, err
	}
	return naming.Lookup(p.c.k, dir, name)
}

// Write commits new content at the path as a fresh immutable version,
// creating the file (and directories) if absent. It retries validation
// conflicts, since "last writer adds a version" is the intended
// whole-file semantic here. A conflict means another transaction
// committed since our read, or holds the file's lock, and a winner
// needs time — a checkpoint, a turn on a processor — to finish: the
// retries back off, doubling from 20 µs to 5 ms (some 45 ms in all), or
// a loser spends its sixteen attempts inside the winner's one commit.
func (p *PathFS) Write(path string, data []byte) (version uint64, err error) {
	file, err := p.Lookup(path)
	if errors.Is(err, naming.ErrNotFound) {
		file, err = p.Create(path)
	}
	if err != nil {
		return 0, err
	}
	backoff := 20 * time.Microsecond
	for attempt := 0; attempt < 16; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff = min(2*backoff, 5*time.Millisecond)
		}
		tx := p.c.Begin()
		_, cur, err := tx.Read(file)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrNotFile, err)
		}
		if err := tx.Write(file, cur, data); err != nil {
			tx.Abort()
			if errors.Is(err, ErrConflict) {
				continue
			}
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			if errors.Is(err, ErrConflict) {
				continue
			}
			return 0, err
		}
		return cur + 1, nil
	}
	return 0, fmt.Errorf("%w: persistent contention on %q", ErrConflict, path)
}

// Read returns the latest version of the file at the path.
func (p *PathFS) Read(path string) ([]byte, uint64, error) {
	file, err := p.Lookup(path)
	if err != nil {
		return nil, 0, err
	}
	data, ver, err := p.c.Read(file)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrNotFile, err)
	}
	return data, ver, nil
}

// ReadVersion returns a specific immutable version of the file.
func (p *PathFS) ReadVersion(path string, version uint64) ([]byte, uint64, error) {
	file, err := p.Lookup(path)
	if err != nil {
		return nil, 0, err
	}
	return p.c.ReadVersion(file, version)
}

// List returns the names bound in the directory at the path ("" or
// "/" lists the root).
func (p *PathFS) List(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return naming.List(p.c.k, p.root)
	}
	dir, err := naming.Resolve(p.c.k, p.root, path)
	if err != nil {
		return nil, err
	}
	return naming.List(p.c.k, dir)
}

// Remove unbinds the path's final component. The file object itself
// survives (capabilities elsewhere may still name it); this is a
// naming operation, matching the paper's separation of naming from
// storage.
func (p *PathFS) Remove(path string) error {
	dir, name, err := p.lookupDir(path, false)
	if err != nil {
		return err
	}
	return naming.Unbind(p.c.k, dir, name)
}
