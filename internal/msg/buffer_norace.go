//go:build !race

package msg

// bufferState is empty outside race builds: a buffer's lifetime is
// checked only there (buffer_race.go).
type bufferState struct{}

func (*Buffer) freed()  {}
func (*Buffer) reused() {}
