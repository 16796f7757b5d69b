package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/protocol"
	"spcoh/internal/workload"
)

// digestCell is one pinned run: a built-in profile on a mesh of threads
// tiles under one protocol kind ("dir", "sp" or "bcast").
type digestCell struct {
	profile string
	threads int
	kind    string
	seed    int64
	scale   float64
}

func (c digestCell) key() string {
	return fmt.Sprintf("%s/%d/%s/%d", c.profile, c.threads, c.kind, c.seed)
}

// digestCells lists every pinned run: each built-in profile under all three
// protocol kinds on the 4x4 mesh at two seeds, plus three profiles under
// the directory with and without the SP-predictor on the 8x8 and 16x16
// meshes, and under broadcast snooping on the 8x8 mesh. (A 16x16
// broadcast cell takes 25-85 s; noc's differential test covers that
// geometry instead.)
func digestCells() []digestCell {
	var cells []digestCell
	for _, name := range workload.Builtin().Names() {
		for _, seed := range []int64{1, 2} {
			for _, kind := range []string{"dir", "sp", "bcast"} {
				cells = append(cells, digestCell{name, 16, kind, seed, 0.08})
			}
		}
	}
	for _, threads := range []int{64, 256} {
		for _, name := range []string{"ocean", "water-ns", "vips"} {
			kinds := []string{"dir", "sp"}
			if threads == 64 {
				kinds = append(kinds, "bcast")
			}
			for _, kind := range kinds {
				cells = append(cells, digestCell{name, threads, kind, 3, 0.01})
			}
		}
	}
	return cells
}

// resultDigest is the SHA-256 of a run's canonical serialized result —
// its "output bytes" in the sense of the determinism contract.
func resultDigest(t *testing.T, c digestCell) string {
	t.Helper()
	prog := buildProgram(t, c.profile, c.threads, c.scale, c.seed)
	opt := DefaultOptions()
	var err error
	if opt.Machine, err = protocol.ConfigFor(c.threads); err != nil {
		t.Fatal(err)
	}
	switch c.kind {
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(c.threads))
	case "bcast":
		opt.Protocol = Broadcast
	}
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestShardByteIdentityAllProfiles pins the output bytes of every 4x4
// cell in digestCells: each built-in profile under each protocol kind at
// two seeds. The name dates from when this test compared sharded runs
// against serial ones; the sharded engine is gone, and the pins hold the
// serial bytes both engines produced. Any change to simulated behaviour —
// timing, counts, energy, predictor storage — moves a digest; a change
// that is meant to move one must say why and re-pin.
func TestShardByteIdentityAllProfiles(t *testing.T) {
	cells := digestCells()
	if len(cells) != len(pinnedDigests) {
		t.Fatalf("%d cells but %d pinned digests", len(cells), len(pinnedDigests))
	}
	checkDigests(t, cells, func(c digestCell) bool { return c.threads == 16 })
}

// TestShardBigMesh pins the output bytes of the 8x8 and 16x16 cells in
// digestCells, under the directory with and without the SP-predictor. Like
// TestShardByteIdentityAllProfiles, it keeps the name it had when it
// compared sharded and serial runs on these meshes.
func TestShardBigMesh(t *testing.T) {
	checkDigests(t, digestCells(), func(c digestCell) bool { return c.threads > 16 })
}

// checkDigests runs every cell that keep selects, one parallel subtest
// each, and compares its digest with the pinned one.
func checkDigests(t *testing.T, cells []digestCell, keep func(digestCell) bool) {
	t.Helper()
	for _, c := range cells {
		if !keep(c) {
			continue
		}
		t.Run(c.key(), func(t *testing.T) {
			t.Parallel()
			want, ok := pinnedDigests[c.key()]
			if !ok {
				t.Fatalf("no pinned digest for %s", c.key())
			}
			if got := resultDigest(t, c); got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}

// pinnedDigests maps digestCell.key to the SHA-256 of json.Marshal(Result).
var pinnedDigests = map[string]string{
	"fmm/16/dir/1":             "acd506976174a3292e8589406413895596e84d0e81e9f1a1cc13fd1aa17f6712",
	"fmm/16/sp/1":              "ad79aa00e8016853f540819b73e30661bfd273a6b362e034c99a17a7959725c7",
	"fmm/16/bcast/1":           "d8b4f91f108e93d2bbdd8051cb5a88742893f25d73bfb1cf5acf5f1c3eb63642",
	"fmm/16/dir/2":             "acd506976174a3292e8589406413895596e84d0e81e9f1a1cc13fd1aa17f6712",
	"fmm/16/sp/2":              "ad79aa00e8016853f540819b73e30661bfd273a6b362e034c99a17a7959725c7",
	"fmm/16/bcast/2":           "d8b4f91f108e93d2bbdd8051cb5a88742893f25d73bfb1cf5acf5f1c3eb63642",
	"lu/16/dir/1":              "e6567453fc2fa93f50264dc3b7d38c71c597e3d891b5f648c8432c083a65a881",
	"lu/16/sp/1":               "03b55864a5cde33fb38ed21268ac242d1e8f19c6a41f7308e18f9e211880801c",
	"lu/16/bcast/1":            "002c9b53e8517df272e6b9abfc2b2da86e5de104ff4ba7248de5e9ff0884a70c",
	"lu/16/dir/2":              "e6567453fc2fa93f50264dc3b7d38c71c597e3d891b5f648c8432c083a65a881",
	"lu/16/sp/2":               "03b55864a5cde33fb38ed21268ac242d1e8f19c6a41f7308e18f9e211880801c",
	"lu/16/bcast/2":            "002c9b53e8517df272e6b9abfc2b2da86e5de104ff4ba7248de5e9ff0884a70c",
	"ocean/16/dir/1":           "b98e5321fdfa1158666e2d7aed7a20adc5b52797d59581d8c9a6c8664ce94ca1",
	"ocean/16/sp/1":            "9b8a12bd58d781eb13198d7f33177b7a682a1c2a0dbc885297b338d0d86a8549",
	"ocean/16/bcast/1":         "1c881a4e4a342b23449ddaced1aa5aefb3767695fd9ea98f69b322076fef31ac",
	"ocean/16/dir/2":           "b98e5321fdfa1158666e2d7aed7a20adc5b52797d59581d8c9a6c8664ce94ca1",
	"ocean/16/sp/2":            "9b8a12bd58d781eb13198d7f33177b7a682a1c2a0dbc885297b338d0d86a8549",
	"ocean/16/bcast/2":         "1c881a4e4a342b23449ddaced1aa5aefb3767695fd9ea98f69b322076fef31ac",
	"radiosity/16/dir/1":       "95377b3709fb4032947621eb0c486d6b055599a0551a9f01b1b31ecc2938d013",
	"radiosity/16/sp/1":        "d6a3c583b5fb6fad709ed37168678ca68ab29d9ad19212e62e21067f1270d91f",
	"radiosity/16/bcast/1":     "fcb5912fd7fbbd5011c94ee322a2b153d9eca5e150317e41f67e7f7c4d4608c3",
	"radiosity/16/dir/2":       "228af48974391952b9e7c993e61c175574be159b182371a0f8b36cfe61726169",
	"radiosity/16/sp/2":        "7a27f63862e930c0330b9a10160e40f7afcdd8a99653f5147e60f50baa9bffee",
	"radiosity/16/bcast/2":     "4e193ad59a704083fb3ed3ad71b65394d9acc9087508d632578b3c4b96efc256",
	"water-ns/16/dir/1":        "9c24a42e24b8b01bfe204581ccb0dcc3fe9f2cb9689f802097298a51d17f7999",
	"water-ns/16/sp/1":         "249d5287185b4e42d5abda4d4873d2c07591f7c1a66ca4606128f1a8a8a36109",
	"water-ns/16/bcast/1":      "f0d719fabe758463d663a1f2059117d93c7c010c78af0706afcbf367d31eab23",
	"water-ns/16/dir/2":        "9c24a42e24b8b01bfe204581ccb0dcc3fe9f2cb9689f802097298a51d17f7999",
	"water-ns/16/sp/2":         "249d5287185b4e42d5abda4d4873d2c07591f7c1a66ca4606128f1a8a8a36109",
	"water-ns/16/bcast/2":      "f0d719fabe758463d663a1f2059117d93c7c010c78af0706afcbf367d31eab23",
	"cholesky/16/dir/1":        "7dd0e54011b42932b14d94ec29e780dca75a6d70747ec4f5b801f0768ef19b96",
	"cholesky/16/sp/1":         "7969bf8d8a3844f3c9712c7d56e9e8d78732492eaffb549c6d657bfe524db75c",
	"cholesky/16/bcast/1":      "037777ad4d424b84d3489d1032284c8cf2df04a89f8e3e568bafe553af1d96f6",
	"cholesky/16/dir/2":        "7dd0e54011b42932b14d94ec29e780dca75a6d70747ec4f5b801f0768ef19b96",
	"cholesky/16/sp/2":         "7969bf8d8a3844f3c9712c7d56e9e8d78732492eaffb549c6d657bfe524db75c",
	"cholesky/16/bcast/2":      "037777ad4d424b84d3489d1032284c8cf2df04a89f8e3e568bafe553af1d96f6",
	"fft/16/dir/1":             "981ab599895ad70f9b730325f1c732650efbd87df819131da2b921b71d1f397a",
	"fft/16/sp/1":              "d29ca844c4f52b36b8426b8e5bb6e82bc3d53d8ce602e056a2bba60e2e2bad0b",
	"fft/16/bcast/1":           "f8fc6e6e1778a82bb76706a8b42ff2ad9340e8bd8efa53ea2ab7abeb2e6cb5c1",
	"fft/16/dir/2":             "981ab599895ad70f9b730325f1c732650efbd87df819131da2b921b71d1f397a",
	"fft/16/sp/2":              "d29ca844c4f52b36b8426b8e5bb6e82bc3d53d8ce602e056a2bba60e2e2bad0b",
	"fft/16/bcast/2":           "f8fc6e6e1778a82bb76706a8b42ff2ad9340e8bd8efa53ea2ab7abeb2e6cb5c1",
	"radix/16/dir/1":           "e2ae47d04e4823e5a630e6c60b33aa1e3282a3e72ba855d24b46a8e6d4ea4d82",
	"radix/16/sp/1":            "7c1517b1b3396f42615d47e134a92ed180890adad06eb0c7973c15fa10cceacf",
	"radix/16/bcast/1":         "d73b83b5c621be99496899f43887142def54f1de571371d8110e0b49b94dbddc",
	"radix/16/dir/2":           "e2ae47d04e4823e5a630e6c60b33aa1e3282a3e72ba855d24b46a8e6d4ea4d82",
	"radix/16/sp/2":            "7c1517b1b3396f42615d47e134a92ed180890adad06eb0c7973c15fa10cceacf",
	"radix/16/bcast/2":         "d73b83b5c621be99496899f43887142def54f1de571371d8110e0b49b94dbddc",
	"water-sp/16/dir/1":        "de03e467bb2e70df693f56adb217c174b7acbeb4ad364d1b65e109c526cf5f97",
	"water-sp/16/sp/1":         "0da904204af76896a4237c26013efdee93c08bfcf6b0fc32262cfe148d51246b",
	"water-sp/16/bcast/1":      "c29187b478c1602e0eef0164c691e7f2b3a52731cd8a2d1fb1c0d8b33d50eaed",
	"water-sp/16/dir/2":        "de03e467bb2e70df693f56adb217c174b7acbeb4ad364d1b65e109c526cf5f97",
	"water-sp/16/sp/2":         "0da904204af76896a4237c26013efdee93c08bfcf6b0fc32262cfe148d51246b",
	"water-sp/16/bcast/2":      "c29187b478c1602e0eef0164c691e7f2b3a52731cd8a2d1fb1c0d8b33d50eaed",
	"bodytrack/16/dir/1":       "4752fb685bb9fa55e8a3687c543a77f76dd9ba674cfeae2c921039a4bd4b0c77",
	"bodytrack/16/sp/1":        "006962bec11849991032199af65f5aa40b14c0851851c86b55b7a94907b2e599",
	"bodytrack/16/bcast/1":     "2b0411a215e966617f5303d9017561de7a5fa2365d96b38f49cb0b24f7b123c1",
	"bodytrack/16/dir/2":       "4752fb685bb9fa55e8a3687c543a77f76dd9ba674cfeae2c921039a4bd4b0c77",
	"bodytrack/16/sp/2":        "006962bec11849991032199af65f5aa40b14c0851851c86b55b7a94907b2e599",
	"bodytrack/16/bcast/2":     "2b0411a215e966617f5303d9017561de7a5fa2365d96b38f49cb0b24f7b123c1",
	"fluidanimate/16/dir/1":    "79ec1d394b1583d663e5bedb770763aa70b8b81024d74414413c12a4f7addc6e",
	"fluidanimate/16/sp/1":     "4cf04ba1cec74c8a30bf9832c831c832c4f2ced4334042dc49b0e4a4a26caecd",
	"fluidanimate/16/bcast/1":  "7d77eeebf5d639311d58b07add93a62e3030e5d607ee3ba89b6ed40b79bbcc2b",
	"fluidanimate/16/dir/2":    "79ec1d394b1583d663e5bedb770763aa70b8b81024d74414413c12a4f7addc6e",
	"fluidanimate/16/sp/2":     "4cf04ba1cec74c8a30bf9832c831c832c4f2ced4334042dc49b0e4a4a26caecd",
	"fluidanimate/16/bcast/2":  "7d77eeebf5d639311d58b07add93a62e3030e5d607ee3ba89b6ed40b79bbcc2b",
	"streamcluster/16/dir/1":   "e44c0eca605065faaebdb3b553edcc9cb383d80ecc687cb0741f8b0f9a5f740a",
	"streamcluster/16/sp/1":    "f210deb8be547f8fd849bb78aa07ec11b802d0a79fb19cad0ca41e2a71dff0d4",
	"streamcluster/16/bcast/1": "43a0ef03044524f1fa32f4e3c9e9a75576b22aa69142fb3e5caf41df14bb64b7",
	"streamcluster/16/dir/2":   "e44c0eca605065faaebdb3b553edcc9cb383d80ecc687cb0741f8b0f9a5f740a",
	"streamcluster/16/sp/2":    "f210deb8be547f8fd849bb78aa07ec11b802d0a79fb19cad0ca41e2a71dff0d4",
	"streamcluster/16/bcast/2": "43a0ef03044524f1fa32f4e3c9e9a75576b22aa69142fb3e5caf41df14bb64b7",
	"vips/16/dir/1":            "adb2148cb3f9b1eda880945b37b2e66c9a6aecf5d9f7b001df1d0a3170b8bf39",
	"vips/16/sp/1":             "f2769adfc6fd41c02deaf0ad41b5f539d7e37103efc929f70e7f6474598b6857",
	"vips/16/bcast/1":          "7477ccc2bca6851ed115f817b3c608b329b9742fc9209f5598cada66893ae6a4",
	"vips/16/dir/2":            "adb2148cb3f9b1eda880945b37b2e66c9a6aecf5d9f7b001df1d0a3170b8bf39",
	"vips/16/sp/2":             "f2769adfc6fd41c02deaf0ad41b5f539d7e37103efc929f70e7f6474598b6857",
	"vips/16/bcast/2":          "7477ccc2bca6851ed115f817b3c608b329b9742fc9209f5598cada66893ae6a4",
	"facesim/16/dir/1":         "83ad5cfc08d78e737c947d46052eaa8bdac736e271b375e40fff875ffaeaf9d8",
	"facesim/16/sp/1":          "8353442e655ac620f219110263119fe083b8fd766dcd88b553d7e00cd8024374",
	"facesim/16/bcast/1":       "9063b6031828b25841fdd312de39fccf58ba625e9380cf13b6c8acfd687775f4",
	"facesim/16/dir/2":         "83ad5cfc08d78e737c947d46052eaa8bdac736e271b375e40fff875ffaeaf9d8",
	"facesim/16/sp/2":          "8353442e655ac620f219110263119fe083b8fd766dcd88b553d7e00cd8024374",
	"facesim/16/bcast/2":       "9063b6031828b25841fdd312de39fccf58ba625e9380cf13b6c8acfd687775f4",
	"ferret/16/dir/1":          "85b1f592191271fc3ed7a02b8d4022d40065db74474c3af82a40b6797d4f5d26",
	"ferret/16/sp/1":           "50adf8088072abbd966b0ab597291426fdc6cf5d11fbcc6dc590b7602e26678a",
	"ferret/16/bcast/1":        "f01f600a4dd260d353ed701081539ee60c6887fcd4ed551fe09130a3c0e3fbea",
	"ferret/16/dir/2":          "85b1f592191271fc3ed7a02b8d4022d40065db74474c3af82a40b6797d4f5d26",
	"ferret/16/sp/2":           "50adf8088072abbd966b0ab597291426fdc6cf5d11fbcc6dc590b7602e26678a",
	"ferret/16/bcast/2":        "f01f600a4dd260d353ed701081539ee60c6887fcd4ed551fe09130a3c0e3fbea",
	"dedup/16/dir/1":           "a88695ae761d5e781ddac737dd16b455cc923bcec6138d8707a89b6ba992ba64",
	"dedup/16/sp/1":            "b7dde77d77d41a8c78a7577c625430e80d8dfafc00d01921c8c455b03b6d1ae8",
	"dedup/16/bcast/1":         "fe2218357f1b316dd40b18cafbef24fabe9c558ed63965dfdf4aa728eccdc508",
	"dedup/16/dir/2":           "6284fa7e177efc0cb9865bbfe687ef0d857167f6f0d7d4219c7ff928377fd5be",
	"dedup/16/sp/2":            "30d1ca040dfa83a378b1a6c0d08917f82180289ec249395f453a2e333a0c7e11",
	"dedup/16/bcast/2":         "4878d3a943efe3a4015b4adeb08ac8d21283d652686a2016cea5f35fcc111ef2",
	"x264/16/dir/1":            "3cb57183a89e93bf6cbcad38aac642fa4ff21232e62a5a946bfe97fe2fa9d0a2",
	"x264/16/sp/1":             "253d69f68bb33a9733a2ad96d9aed19c928a6e798d1801c8fd6917ab53866b22",
	"x264/16/bcast/1":          "46a466fc2a5868462bd3e2aa35b507db4e72cef3616d7ed8b64de2417f520ec4",
	"x264/16/dir/2":            "3cb57183a89e93bf6cbcad38aac642fa4ff21232e62a5a946bfe97fe2fa9d0a2",
	"x264/16/sp/2":             "253d69f68bb33a9733a2ad96d9aed19c928a6e798d1801c8fd6917ab53866b22",
	"x264/16/bcast/2":          "46a466fc2a5868462bd3e2aa35b507db4e72cef3616d7ed8b64de2417f520ec4",
	"ocean/64/dir/3":           "da1301f42241856a2839bd72b0cc186e28584f792c5539815bd58d6d814c22fd",
	"ocean/64/sp/3":            "1c440a611da69eb2f039d45153527d4e24668f5ff80864c120733d5adbb9d7b7",
	"ocean/64/bcast/3":         "b0edcab9f70ded67a60c94bb6a0dfed2652728ad321b9996965e018db4f59f76",
	"water-ns/64/dir/3":        "72d75c852f113ab890cc77bf2fe760bb9fef511160d115405055c933e91f3d82",
	"water-ns/64/sp/3":         "fa630452b7f9cab32e490cfa10ee3fb10a312c07b79e003a811e1f6760dadb0f",
	"water-ns/64/bcast/3":      "30e53f128639f1c5856c26b83a53a397e888995ec90138d02e223c24ccf8a240",
	"vips/64/dir/3":            "a9dec715adea406d8d42b59cd38af4830b44020fa16a75f5ff53c54f3f48ed89",
	"vips/64/sp/3":             "bf85557129471d6c756afcef4b3f4be9a3c119fa2f8bb0aff9212070ab6ae47e",
	"vips/64/bcast/3":          "59db49bb0b8170d05fab749788740f66623c6ce4bd2636076d4c8482f5bd73e8",
	"ocean/256/dir/3":          "74743ce5570e6661fbf756f6f4c7d111a007dee2268460b43e314be84edce9ec",
	"ocean/256/sp/3":           "ef47b904d87ca83ca8077f321c464e0d9dfb146a0ee6eb865847b251ae07dce4",
	"water-ns/256/dir/3":       "c104aa6ca243e91d0f8fbdd587facb4abb6ed960bfd36260d4d67368d7b2ab55",
	"water-ns/256/sp/3":        "adf10593a193e59eb3eab378d77a420f66833505f78136199a8b47d1ec1a1cf0",
	"vips/256/dir/3":           "16c80971f74d6cde39ac8cc8147ff06e5a77b9c17567dcaf71c6ea9c9af21631",
	"vips/256/sp/3":            "7537a6dbc26bf1c6f7c67dc8e0a33dcf5ed7e59f0bafc820b6853b88943eb37e",
}
