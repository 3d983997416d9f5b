package persist

import (
	"bytes"
	"reflect"
	"testing"

	"erms/internal/apps"
)

// FuzzLoadApp feeds arbitrary bytes to LoadApp, the parser behind a spec's
// `app.kind: file`: whatever the input, it must return an app or an error —
// never panic — and an app it accepts must survive SaveApp → LoadApp
// unchanged, byte for byte on the second save.
func FuzzLoadApp(f *testing.F) {
	for _, app := range []*apps.App{apps.HotelReservation(), apps.SocialNetwork()} {
		var buf bytes.Buffer
		if err := SaveApp(&buf, app); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"x","graphs":[{"service":"s","root":{"microservice":"a"}}]}`))
	f.Add([]byte(`{"graphs":[{"service":"s","root":{"microservice":"a","stages":[[{"microservice":""}]]}}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := LoadApp(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := SaveApp(&first, app); err != nil {
			t.Fatalf("LoadApp accepted an app SaveApp refuses: %v", err)
		}
		again, err := LoadApp(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("LoadApp rejects what SaveApp wrote: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := SaveApp(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the app:\n--- first save ---\n%s\n--- second save ---\n%s", first.Bytes(), second.Bytes())
		}
		if !reflect.DeepEqual(app.Profiles, again.Profiles) || !reflect.DeepEqual(app.SLAs, again.SLAs) ||
			!reflect.DeepEqual(app.Containers, again.Containers) {
			t.Fatal("round trip changed a profile, SLA or container spec")
		}
	})
}
