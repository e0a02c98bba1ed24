package eden_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"eden"
	"eden/internal/conform"
	"eden/internal/edenid"
	"eden/internal/editor"
	"eden/internal/efs"
	"eden/internal/gateway"
	"eden/internal/naming"
	"eden/internal/policy"
)

// TestReadConformance invokes every read operation of the types a
// system starts with, and of a gateway, from another node, and holds
// each reply to a local call's (internal/conform).
func TestReadConformance(t *testing.T) {
	t.Run("system", func(t *testing.T) {
		conform.Reads(t, nil, []conform.Row{
			{Type: naming.TypeName, Op: "lookup", Setup: directory,
				Requests: [][]byte{[]byte("alpha"), []byte("bravo"), []byte("a-longer-name"), []byte("missing")}},
			{Type: naming.TypeName, Op: "list", Setup: directory},
			{Type: efs.TypeName, Op: "read", Setup: mirroredFile,
				Requests: [][]byte{nil, binary.BigEndian.AppendUint64(nil, 1), binary.BigEndian.AppendUint64(nil, 2)}},
			{Type: efs.TypeName, Op: "history", Setup: mirroredFile},
			{Type: editor.BaseTypeName, Op: editor.DisplayOp, Setup: func(home, _ *eden.Node) (eden.Capability, error) {
				return home.CreateObject(editor.BaseTypeName)
			}},
		})
	})
	t.Run("gateway", func(t *testing.T) {
		register := func(s *eden.System) error {
			return s.RegisterGateway(gateway.LinePrinterSpec("conform.printer", func(string) {}))
		}
		conform.Reads(t, register, []conform.Row{
			{Type: "conform.printer", Op: "gateway-stats", Setup: func(home, client *eden.Node) (eden.Capability, error) {
				printer, err := home.CreateObject("conform.printer")
				if err == nil {
					_, err = client.Invoke(printer, "print", []byte("a line"), nil, &eden.InvokeOptions{Timeout: 10 * time.Second})
				}
				return printer, err
			}},
		})
	})
}

// TestWriteConformance invokes every operation that is not a read, of
// the types a system starts with and of a gateway, from another node on
// one object and locally on its twin, and holds the replies and the two
// objects' states to each other's (internal/conform).
func TestWriteConformance(t *testing.T) {
	t.Run("system", func(t *testing.T) {
		conform.Writes(t, nil, []conform.Row{
			{Type: naming.TypeName, Op: "bind", Setup: newDirectory, Caps: aDirectory,
				Requests: [][]byte{[]byte("alpha"), []byte("a-longer-name"), []byte("bad/name")}},
			{Type: naming.TypeName, Op: "rebind", Setup: directory, Caps: aDirectory,
				Requests: [][]byte{[]byte("alpha"), []byte("fresh")}},
			{Type: naming.TypeName, Op: "unbind", Setup: directory,
				Requests: [][]byte{[]byte("bravo"), []byte("missing")}},
			{Type: efs.TypeName, Op: "lock", Setup: mirroredFile,
				Requests: [][]byte{[]byte("tx-lock"), []byte("tx-other")}},
			{Type: efs.TypeName, Op: "prepare", Setup: mirroredFile,
				Requests: [][]byte{proposal("tx-prepare", 2, []byte("pending content")), proposal("tx-stale", 1, nil)}},
			{Type: efs.TypeName, Op: "commit", Setup: prepared("tx-commit"),
				Requests: [][]byte{[]byte("tx-commit"), []byte("tx-unknown")}},
			{Type: efs.TypeName, Op: "commit-one", Setup: mirroredFile,
				Requests: [][]byte{proposal("", 2, []byte("version three")), proposal("", 3, bytes.Repeat([]byte("four"), 750)), []byte("short")}},
			{Type: efs.TypeName, Op: "abort", Setup: prepared("tx-abort"),
				Requests: [][]byte{[]byte("tx-abort"), []byte("tx-unknown")}},
			{Type: efs.TypeName, Op: "add-mirror", Setup: newFile, Caps: func(home *eden.Node) (eden.CapabilityList, error) {
				mirror, err := home.EFS(efs.Optimistic).CreateFile()
				return eden.CapabilityList{mirror}, err
			}},
			{Type: efs.TypeName, Op: "mirror-put", Setup: newFile,
				Requests: [][]byte{binary.BigEndian.AppendUint64(nil, 1), append(binary.BigEndian.AppendUint64(nil, 2), "pushed version"...), []byte("short")}},
			{Type: policy.TypeName, Op: "set-nodes", Setup: func(home, _ *eden.Node) (eden.Capability, error) {
				return home.NewPlacementPolicy()
			}, Requests: [][]byte{binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), 2), []byte("odd")}},
			{Type: policy.TypeName, Op: "place", Setup: func(home, client *eden.Node) (eden.Capability, error) {
				return home.NewPlacementPolicy(home.Num(), client.Num())
			}, Requests: [][]byte{edenid.New(1, 7, 1).Encode(nil), edenid.New(2, 7, 2).Encode(nil), edenid.New(1, 7, 1).Encode(nil), []byte("not an id")}},
		})
	})
	t.Run("gateway", func(t *testing.T) {
		register := func(s *eden.System) error {
			return s.RegisterGateway(gateway.LinePrinterSpec("conform.printer", func(string) {}))
		}
		conform.Writes(t, register, []conform.Row{
			{Type: "conform.printer", Op: "print", Setup: func(home, _ *eden.Node) (eden.Capability, error) {
				return home.CreateObject("conform.printer")
			}, Requests: [][]byte{[]byte("a line"), []byte("another line\n"), []byte("\n")}},
		})
	})
}

// newDirectory is an empty directory on home.
func newDirectory(home, _ *eden.Node) (eden.Capability, error) { return home.NewDirectory() }

// aDirectory is one capability parameter: a directory on home.
func aDirectory(home *eden.Node) (eden.CapabilityList, error) {
	dir, err := home.NewDirectory()
	return eden.CapabilityList{dir}, err
}

// newFile is an empty EFS file on home.
func newFile(home, _ *eden.Node) (eden.Capability, error) {
	return home.EFS(efs.Optimistic).CreateFile()
}

// proposal is the request of prepare and commit-one:
// tidLen(4) tid | base(8) | content.
func proposal(tid string, base uint64, content []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(tid)))
	b = binary.BigEndian.AppendUint64(append(b, tid...), base)
	return append(b, content...)
}

// prepared is mirroredFile with a third version prepared from client
// under tid.
func prepared(tid string) func(home, client *eden.Node) (eden.Capability, error) {
	return func(home, client *eden.Node) (eden.Capability, error) {
		file, err := mirroredFile(home, client)
		if err == nil {
			_, err = client.Invoke(file, "prepare", proposal(tid, 2, []byte("prepared content")), nil, &eden.InvokeOptions{Timeout: 10 * time.Second})
		}
		return file, err
	}
}

// directory is a directory on home with three names bound from client,
// each to another object; two of the names are of one length.
func directory(home, client *eden.Node) (eden.Capability, error) {
	dir, err := home.NewDirectory()
	for _, name := range []string{"alpha", "bravo", "a-longer-name"} {
		var target eden.Capability
		if err == nil {
			target, err = home.NewDirectory()
		}
		if err == nil {
			err = client.Bind(dir, name, target)
		}
	}
	return dir, err
}

// mirroredFile is an EFS file on home, mirrored on home and on client, with two
// versions committed from client: a short one and one of 3 000 bytes.
func mirroredFile(home, client *eden.Node) (eden.Capability, error) {
	file, _, err := home.EFS(efs.Optimistic).CreateReplicated(home.Num(), client.Num())
	for _, content := range [][]byte{[]byte("version one"), bytes.Repeat([]byte("two "), 750)} {
		if err != nil {
			break
		}
		tx := client.EFS(efs.Optimistic).Begin()
		if err = tx.WriteLatest(file, content); err == nil {
			err = tx.Commit()
		}
	}
	return file, err
}
