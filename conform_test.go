package eden_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"eden"
	"eden/internal/conform"
	"eden/internal/editor"
	"eden/internal/efs"
	"eden/internal/gateway"
	"eden/internal/naming"
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
