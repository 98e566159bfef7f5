package core

import (
	"fmt"
	"strings"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/mls"
)

// fileSystemGates is the directory-control table. The shape changes at
// S2: before the Bratt removal every operation is keyed by a
// character-string tree name the kernel resolves; afterwards operations
// are keyed by a directory segment number plus an entry name, and the
// tree walk happens in the user ring.
func (k *Kernel) fileSystemGates() []gdef {
	if k.cfg.Stage >= S2RefNamesRemoved {
		return k.segnoKeyedFSGates()
	}
	return k.pathKeyedFSGates()
}

// dirArg converts a directory segment-number argument to the directory
// object, verifying it really is a known directory of the caller.
func (k *Kernel) dirArg(p *Proc, arg uint64) (*fs.Object, error) {
	uid, ok := p.KST.UIDForSegNo(machine.SegNo(arg))
	if !ok {
		return nil, fmt.Errorf("core: directory segment %d not known", arg)
	}
	obj, err := k.hier.Object(uid)
	if err != nil {
		return nil, err
	}
	if obj.Kind != fs.KindDirectory {
		return nil, fmt.Errorf("%w: segment %d", fs.ErrNotDirectory, arg)
	}
	return obj, nil
}

// createBranch is the shared create implementation.
func (k *Kernel) createBranch(p *Proc, dirUID uint64, name string, kindFlag uint64) (uint64, error) {
	kind := fs.KindSegment
	if kindFlag != 0 {
		kind = fs.KindDirectory
	}
	return k.hier.Create(p.Principal, p.Label, dirUID, name, fs.CreateOptions{
		Kind:  kind,
		Label: p.Label, // created objects carry the creating process's label
	})
}

// aclArgs decodes (patternOff, patternLen, modeBits) into an ACL pattern
// and mode.
func (k *Kernel) aclArgs(ctx *machine.ExecContext, patOff, patLen, modeBits uint64) (acl.Pattern, acl.Mode, error) {
	patStr, err := k.readUserString(ctx, patOff, patLen)
	if err != nil {
		return acl.Pattern{}, 0, err
	}
	pat, err := acl.ParsePattern(patStr)
	if err != nil {
		return acl.Pattern{}, 0, err
	}
	if modeBits > uint64(acl.ModeRead|acl.ModeExecute|acl.ModeWrite|acl.ModeStatus|acl.ModeModify|acl.ModeAppend) {
		return acl.Pattern{}, 0, fmt.Errorf("core: invalid mode bits %#x", modeBits)
	}
	return pat, acl.Mode(modeBits), nil
}

func formatACL(entries []acl.Entry) string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// statusWords packs status results.
func statusWords(obj *fs.Object) []uint64 {
	kind := uint64(0)
	if obj.Kind == fs.KindDirectory {
		kind = 1
	}
	return []uint64{kind, uint64(obj.BitCount()), obj.UID}
}

// pathKeyedFSGates is the S0/S1 interface table.
func (k *Kernel) pathKeyedFSGates() []gdef {
	// resolveDir handles a (pathOff, pathLen) pair naming any object.
	resolveDir := func(ctx *machine.ExecContext, p *Proc, off, length uint64) (uint64, error) {
		path, err := k.readUserString(ctx, off, length)
		if err != nil {
			return 0, err
		}
		return k.resolvePathKernel(p, path)
	}

	return []gdef{
		{name: "hcs_$append_branch", cat: gate.CatFileSystem, bracket: userRing, arity: 5, units: 5,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dirUID, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				uid, err := k.createBranch(p, dirUID, name, args[4])
				if err != nil {
					return nil, err
				}
				return []uint64{uid}, nil
			}},
		{name: "hcs_$append_link", cat: gate.CatFileSystem, bracket: userRing, arity: 6, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dirUID, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				target, err := k.readUserString(ctx, args[4], args[5])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.AddLink(p.Principal, p.Label, dirUID, name, target)
			}},
		{name: "hcs_$delete_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 4, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dirUID, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.Delete(p.Principal, p.Label, dirUID, name)
			}},
		{name: "hcs_$list_dir", cat: gate.CatFileSystem, bracket: userRing, arity: 2, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dirUID, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				entries, err := k.hier.List(p.Principal, p.Label, dirUID)
				if err != nil {
					return nil, err
				}
				return k.writeNameList(ctx, entries)
			}},
		{name: "hcs_$add_acl_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 5, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1]) // any object path
				if err != nil {
					return nil, err
				}
				pat, mode, err := k.aclArgs(ctx, args[2], args[3], args[4])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.SetACL(p.Principal, p.Label, uid, pat, mode)
			}},
		{name: "hcs_$delete_acl_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 4, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				patStr, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				pat, err := acl.ParsePattern(patStr)
				if err != nil {
					return nil, err
				}
				return nil, k.hier.RemoveACL(p.Principal, p.Label, uid, pat)
			}},
		{name: "hcs_$list_acl", cat: gate.CatFileSystem, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				off, length, err := k.writeUserString(ctx, formatACL(obj.ACLEntries()))
				if err != nil {
					return nil, err
				}
				return []uint64{off, length, uint64(len(obj.ACLEntries()))}, nil
			}},
		{name: "hcs_$status", cat: gate.CatFileSystem, bracket: userRing, arity: 2, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				return statusWords(obj), nil
			}},
		{name: "hcs_$set_bc", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				if _, err := k.hier.CheckSegmentAccess(p.Principal, p.Label, uid, acl.ModeWrite); err != nil {
					return nil, err
				}
				if err := k.hier.SetBitCount(uid, int(args[2])); err != nil {
					return nil, err
				}
				return nil, nil
			}},
		{name: "hcs_$set_max_length", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.SetLength(p.Principal, p.Label, uid, int(args[2]))
			}},
		{name: "hcs_$get_uid", cat: gate.CatFileSystem, bracket: userRing, arity: 2, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := resolveDir(ctx, p, args[0], args[1])
				if err != nil {
					return nil, err
				}
				return []uint64{uid}, nil
			}},
	}
}

// segnoKeyedFSGates is the S2+ interface table: the Bratt design, keyed
// by directory segment numbers. Tree-name resolution is gone from the
// kernel.
func (k *Kernel) segnoKeyedFSGates() []gdef {
	// entryUID resolves the common (dirSegno, nameOff, nameLen) key.
	entryUID := func(ctx *machine.ExecContext, p *Proc, dirArg, nameOff, nameLen uint64) (uint64, error) {
		dir, err := k.dirArg(p, dirArg)
		if err != nil {
			return 0, err
		}
		name, err := k.readUserString(ctx, nameOff, nameLen)
		if err != nil {
			return 0, err
		}
		entry, err := k.hier.Lookup(p.Principal, p.Label, dir.UID, name)
		if err != nil {
			return 0, err
		}
		if entry.IsLink() {
			return 0, fmt.Errorf("core: %q is a link", name)
		}
		return entry.UID, nil
	}

	return []gdef{
		{name: "hcs_$root_dir", cat: gate.CatFileSystem, bracket: userRing, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := k.initiateDir(p, fs.RootUID)
				if err != nil {
					return nil, err
				}
				return []uint64{uint64(seg)}, nil
			}},
		{name: "hcs_$initiate_dir", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				entry, err := k.hier.Lookup(p.Principal, p.Label, dir.UID, name)
				if err != nil {
					return nil, err
				}
				if entry.IsLink() {
					return nil, fmt.Errorf("core: %q is a link; resolve it in the user ring", name)
				}
				seg, err := k.initiateDir(p, entry.UID)
				if err != nil {
					return nil, err
				}
				return []uint64{uint64(seg)}, nil
			}},
		{name: "hcs_$lookup_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				entry, err := k.hier.Lookup(p.Principal, p.Label, dir.UID, name)
				if err != nil {
					return nil, err
				}
				if entry.IsLink() {
					off, length, err := k.writeUserString(ctx, entry.LinkTo)
					if err != nil {
						return nil, err
					}
					return []uint64{0, 2, off, length}, nil // isLink marker
				}
				obj, err := k.hier.Object(entry.UID)
				if err != nil {
					return nil, err
				}
				kind := uint64(0)
				if obj.Kind == fs.KindDirectory {
					kind = 1
				}
				return []uint64{entry.UID, kind, 0, 0}, nil
			}},
		{name: "hcs_$append_branch", cat: gate.CatFileSystem, bracket: userRing, arity: 4, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				uid, err := k.createBranch(p, dir.UID, name, args[3])
				if err != nil {
					return nil, err
				}
				return []uint64{uid}, nil
			}},
		{name: "hcs_$append_link", cat: gate.CatFileSystem, bracket: userRing, arity: 5, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				target, err := k.readUserString(ctx, args[3], args[4])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.AddLink(p.Principal, p.Label, dir.UID, name, target)
			}},
		{name: "hcs_$delete_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.Delete(p.Principal, p.Label, dir.UID, name)
			}},
		{name: "hcs_$list_dir", cat: gate.CatFileSystem, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				dir, err := k.dirArg(p, args[0])
				if err != nil {
					return nil, err
				}
				entries, err := k.hier.List(p.Principal, p.Label, dir.UID)
				if err != nil {
					return nil, err
				}
				return k.writeNameList(ctx, entries)
			}},
		{name: "hcs_$add_acl_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 6, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				pat, mode, err := k.aclArgs(ctx, args[3], args[4], args[5])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.SetACL(p.Principal, p.Label, uid, pat, mode)
			}},
		{name: "hcs_$delete_acl_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 5, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				patStr, err := k.readUserString(ctx, args[3], args[4])
				if err != nil {
					return nil, err
				}
				pat, err := acl.ParsePattern(patStr)
				if err != nil {
					return nil, err
				}
				return nil, k.hier.RemoveACL(p.Principal, p.Label, uid, pat)
			}},
		{name: "hcs_$list_acl", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				off, length, err := k.writeUserString(ctx, formatACL(obj.ACLEntries()))
				if err != nil {
					return nil, err
				}
				return []uint64{off, length, uint64(len(obj.ACLEntries()))}, nil
			}},
		{name: "hcs_$status", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				return statusWords(obj), nil
			}},
		{name: "hcs_$set_bc", cat: gate.CatFileSystem, bracket: userRing, arity: 4, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				if _, err := k.hier.CheckSegmentAccess(p.Principal, p.Label, uid, acl.ModeWrite); err != nil {
					return nil, err
				}
				if err := k.hier.SetBitCount(uid, int(args[3])); err != nil {
					return nil, err
				}
				return nil, nil
			}},
		{name: "hcs_$set_max_length", cat: gate.CatFileSystem, bracket: userRing, arity: 4, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := entryUID(ctx, p, args[0], args[1], args[2])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.SetLength(p.Principal, p.Label, uid, int(args[3]))
			}},
	}
}

// labelForLevel builds an MLS label from a packed level word (level only;
// compartments are set by richer interfaces).
func labelForLevel(level uint64) (mls.Label, error) {
	if level > uint64(mls.TopSecret) {
		return mls.Label{}, fmt.Errorf("core: invalid level %d", level)
	}
	return mls.NewLabel(mls.Level(level)), nil
}
