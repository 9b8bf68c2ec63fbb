package cliutil

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func parseCache(t *testing.T, args ...string) *CacheFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := AddCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cf
}

func TestCacheFlagsDefaults(t *testing.T) {
	cf := parseCache(t)
	cfg := cf.Config()
	if cfg.SizeBytes != 2048 || cfg.BlockBytes != 64 || cfg.Assoc != 1 {
		t.Fatalf("default geometry = %+v, want 2048/64/1", cfg)
	}
	if cfg.SectorBytes != 0 || cfg.PartialLoad {
		t.Fatalf("default fill policy = %+v, want whole-block", cfg)
	}
	list, err := cf.SizeList()
	if err != nil || list != nil {
		t.Fatalf("SizeList without -sizes = %v, %v; want nil, nil", list, err)
	}
}

func TestCacheFlagsParse(t *testing.T) {
	cf := parseCache(t, "-size", "512", "-block", "16", "-assoc", "0", "-sector", "8", "-partial")
	cfg := cf.Config()
	if cfg.SizeBytes != 512 || cfg.BlockBytes != 16 || cfg.Assoc != 0 ||
		cfg.SectorBytes != 8 || !cfg.PartialLoad {
		t.Fatalf("parsed config = %+v", cfg)
	}
}

func TestCacheFlagsSizeList(t *testing.T) {
	cf := parseCache(t, "-sizes", "512, 1024,2048")
	list, err := cf.SizeList()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{512, 1024, 2048}; !reflect.DeepEqual(list, want) {
		t.Fatalf("SizeList = %v, want %v", list, want)
	}
	cf = parseCache(t, "-sizes", "512,x")
	if _, err := cf.SizeList(); err == nil {
		t.Fatal("bad -sizes entry not rejected")
	}
}

func TestWorkersFlag(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		want    int
		wantErr string
	}{
		{name: "default", want: 0},
		{name: "serial", args: []string{"-workers", "1"}, want: 1},
		{name: "explicit", args: []string{"-workers=8"}, want: 8},
		{
			name:    "negative",
			args:    []string{"-workers", "-3"},
			wantErr: `invalid value "-3" for flag -workers: negative worker count -3 (want 0 = GOMAXPROCS, 1 = serial, or more)`,
		},
		{
			name:    "negative with equals",
			args:    []string{"-workers=-7"},
			wantErr: `invalid value "-7" for flag -workers: negative worker count -7 (want 0 = GOMAXPROCS, 1 = serial, or more)`,
		},
		{
			name:    "not a number",
			args:    []string{"-workers", "four"},
			wantErr: `invalid value "four" for flag -workers: not an integer`,
		},
		{
			name:    "missing value",
			args:    []string{"-workers"},
			wantErr: "flag needs an argument: -workers",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			w := AddWorkersFlag(fs)
			err := fs.Parse(tt.args)
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("parse %v: error %v, want %q", tt.args, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %v: %v", tt.args, err)
			}
			if *w != tt.want {
				t.Errorf("parse %v: workers = %d, want %d", tt.args, *w, tt.want)
			}
		})
	}
}
