// Smoke tests of the package-level surface: the paper's client/server
// flow through the three roles in one process (no wire in between —
// roles_test.go covers the cross-machine form), the ciphertext wire-size
// accessors, and the modeled accelerator and experiment registry.

package abcfhe

import (
	"errors"
	"testing"
)

func TestClientRoundTrip(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 1, 2)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Level() != device.MaxLevel() {
		t.Fatal("fresh ciphertext must be at full depth")
	}
	got, err := owner.DecryptDecode(ct)
	if err != nil {
		t.Fatal(err)
	}
	if e := worstSlotErr(msg, got); e > 1e-4 {
		t.Fatalf("worst-slot error %g", e)
	}
}

func TestClientServerFlow(t *testing.T) {
	// The paper's deployment: client encrypts at full depth, server
	// computes and returns a 2-limb ciphertext, client decrypts it.
	owner, device, server := threeParties(t, Test, 3, 4)
	msg := make([]complex128, device.Slots())
	want := make([]complex128, len(msg))
	for i := range msg {
		msg[i], want[i] = complex(0.25, -0.125), complex(0.5, -0.25)
	}
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := server.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	small, err := server.DropLevel(doubled, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(small)
	if err != nil {
		t.Fatal(err)
	}
	if e := worstSlotErr(want, got); e > 1e-4 {
		t.Fatalf("worst-slot error %g", e)
	}
}

// TestUnknownPreset: every listed preset names a parameter set; any other
// name is ErrUnknownPreset (constructors: TestUnknownPresetErrors).
func TestUnknownPreset(t *testing.T) {
	for _, p := range Presets() {
		if _, err := p.spec(); err != nil {
			t.Fatalf("listed preset %q: %v", p, err)
		}
	}
	if _, err := Preset("bogus").spec(); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("unknown preset: got %v, want ErrUnknownPreset", err)
	}
}

func TestSerializationAPI(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 5, 6)
	msg := testMsgs(8, 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := owner.CiphertextWireBytes(ct.Level()); err != nil || len(data) != want {
		t.Fatalf("wire size %d != reported %d (%v)", len(data), want, err)
	}
	back, err := owner.DeserializeCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(back)
	if err != nil {
		t.Fatal(err)
	}
	if e := worstSlotErr(msg, got); e > 1e-4 {
		t.Fatalf("worst-slot error %g", e)
	}
}

func TestCompressedUploadAPI(t *testing.T) {
	owner, _, server := threeParties(t, Test, 7, 8)
	msg := testMsgs(owner.Slots(), 1)[0]
	data, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := server.CompressedWireBytes(owner.MaxLevel()); err != nil || len(data) != want {
		t.Fatalf("compressed size %d != reported %d (%v)", len(data), want, err)
	}
	ct, err := server.ExpandCompressedUpload(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(ct)
	if err != nil {
		t.Fatal(err)
	}
	if e := worstSlotErr(msg, got); e > 1e-4 {
		t.Fatalf("worst-slot error %g", e)
	}
}
