import hashlib
import json
import re

import numpy as np
import pytest

from xsit import surface as surf
from xsit.files import InputError

# sha256 of build_icosphere(o).vertices/.faces bytes, as first built by
# the per-edge Python subdivision; an ulp drift in a midpoint fails here
ICOSPHERE_SHA256 = {
    0: ("25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc"),
    1: ("b6214d9b748a3436b9cd09382128700d60f34f5401c9b6803a92217a88bde613",
        "e18185133ba100eae8011078488453e3816a9a6bb41e5c5ed8c35df84b5d34d7"),
    2: ("64c97fe0bc6370829a19da4239ff043330e33c402b9ce4e640ee432d6bba2377",
        "7cdb09bc5a6bd5baf09509c7ee299ff2afb6d6396ca5ef1b0cfe97fd259b80fd"),
    3: ("224c25642fc8554756cce94ac78da23f14e54a23dc68458f2ecf6d4b9391571c",
        "bea174c5495e180ff23163088090e4d0001a26308bbd8966035b868a7ea1a6f5"),
    4: ("a6225ea9174b9d9b9d42a369aac58c2e922a97f8e064d9494411c06c601ea88d",
        "7533425fa1b71c9376e1353c2e6a7f29f4ad80acd094e9a52b7bc1899d336035"),
    5: ("c5f3b6c7d17744c7b9c9875dc780b036c62a5f74eb24fd5b0c72e35bfb678d8b",
        "eadfe65f466e95acfdda9f43f935b85c639f55a20f2c6d8054c82515a0318564"),
    6: ("f5371f70a82e7433e069a147300268f2ba70808d96209f46523ebb675fe2c432",
        "841afa80ca2a5eeb7947b793fe6f9f8877ff03f87cd40db44b325307be05548d"),
}

# sha256 of write_ply(build_icosphere(3)) without and with a scalar (see
# TestPly.test_pinned_bytes), as first written one f-string per row
PLY_SHA256 = {
    "none": "511cae7977e3ab14f52115a86bdd676efe488ebe8a2804e209ecae36fca28545",
    "scalar":
        "21392d8ff808a26975dedf20c0288237baed60feeebfce4c4d375c78edd1eddc",
}


class TestIcosphere:
    @pytest.mark.parametrize("order,nv,nf", [(0, 12, 20), (1, 42, 80),
                                             (2, 162, 320), (3, 642, 1280)])
    def test_counts(self, order, nv, nf):
        mesh = surf.build_icosphere(order)
        assert mesh.n_vertices == nv
        assert mesh.n_faces == nf

    def test_paper_scale_order6(self):
        mesh = surf.build_icosphere(6)
        assert mesh.n_vertices == 40962
        assert mesh.n_faces == 81920

    def test_unit_norm(self):
        mesh = surf.build_icosphere(3)
        norms = np.linalg.norm(mesh.vertices, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_deterministic(self):
        a = surf.build_icosphere(3)
        b = surf.build_icosphere(3)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()

    @pytest.mark.parametrize("order", range(7))
    def test_pinned_bytes(self, order):
        mesh = surf.build_icosphere(order)
        got = (hashlib.sha256(mesh.vertices.tobytes()).hexdigest(),
               hashlib.sha256(mesh.faces.tobytes()).hexdigest())
        assert got == ICOSPHERE_SHA256[order]

    def test_ccw_outward(self):
        mesh = surf.build_icosphere(2)
        va = mesh.vertices[mesh.faces[:, 0]]
        vb = mesh.vertices[mesh.faces[:, 1]]
        vc = mesh.vertices[mesh.faces[:, 2]]
        normals = np.cross(vb - va, vc - va)
        centroids = (va + vb + vc) / 3
        assert (np.einsum("ij,ij->i", normals, centroids) > 0).all()

    def test_negative_order(self):
        with pytest.raises(InputError):
            surf.build_icosphere(-1)


def plane_sign_oracle(d: int, p: int) -> list:
    """Per order-p face, the sorted order-d vertices inside its spherical
    triangle, found independently of the partition: by the sign of each
    vertex against the plane normals of the triangle's three arcs."""
    fine = surf.build_icosphere(d)
    coarse = surf.build_icosphere(p)
    out = []
    for a, b, c in coarse.faces:
        va, vb, vc = (coarse.vertices[a], coarse.vertices[b],
                      coarse.vertices[c])
        inside = np.ones(fine.n_vertices, dtype=bool)
        for u, v in ((va, vb), (vb, vc), (vc, va)):
            inside &= fine.vertices @ np.cross(u, v) >= -1e-9
        out.append(np.nonzero(inside)[0].tolist())
    return out


class TestPartition:
    def test_faces_are_patches_when_orders_equal(self):
        part = surf.build_partition(2, 2)
        assert part.n_patches == 20 * 4 ** 2
        assert part.patch_size == 3

    def test_d2_p0(self):
        part = surf.build_partition(2, 0)
        assert part.n_patches == 20
        assert part.patch_size == 15

    def test_brute_force_count_oracle(self):
        part = surf.build_partition(3, 1)
        assert part.patch_vertex_indices.tolist() == plane_sign_oracle(3, 1)

    def test_brute_force_count_oracle_paper_scale(self):
        part = surf.build_partition(6, 2)
        assert part.patch_vertex_indices.tolist() == plane_sign_oracle(6, 2)

    def test_coverage_and_valence(self):
        part = surf.build_partition(3, 1)
        v = surf.vertex_count(3)
        counts = np.bincount(part.patch_vertex_indices.reshape(-1),
                             minlength=v)
        assert (counts >= 1).all()
        assert set(np.unique(counts)) <= {1, 2, 5, 6}
        # exactly 12 icosahedral corners with valence 5
        assert (counts == 5).sum() == 12
        corners = surf.vertex_count(1)
        assert ((counts == 5) | (counts == 6)).sum() == corners

    def test_m_formula_d6_p2(self):
        assert surf.patch_size(6, 2) == 153
        assert 20 * 4 ** 2 == 320

    def test_p_greater_than_d(self):
        with pytest.raises(InputError):
            surf.build_partition(1, 2)

    @pytest.mark.parametrize("mesh_order,patch_order,message", [
        (10 ** 12, 1, "mesh order must be an integer in [0, 29], got "
                      "1000000000000"),
        (30, 1, "mesh order must be an integer in [0, 29], got 30"),
        (3, 10 ** 12, "patch order must be an integer in [0, 29], got "
                      "1000000000000"),
        (3, -1, "patch order must be an integer in [0, 29], got -1")],
        ids=["mesh-10**12", "mesh-30", "patch-10**12", "patch-negative"])
    def test_outsized_order_is_refused_before_any_power(
            self, unbuilt, mesh_order, patch_order, message):
        """A direct call checks both orders by the order rule before
        `patch_size` takes a power of either."""
        with pytest.raises(InputError, match=re.escape(message)):
            surf.build_partition(mesh_order, patch_order)


class TestPatchify:
    def test_gather_identity(self):
        part = surf.build_partition(2, 1)
        v = surf.vertex_count(2)
        feats = np.arange(v, dtype=np.float32)[:, None]
        s = surf.SurfaceSample("a", 0, feats)
        out = surf.patchify(s, part, 1)
        np.testing.assert_array_equal(
            out[:, :, 0].astype(np.int64), part.patch_vertex_indices)

    def test_two_hemispheres(self):
        part = surf.build_partition(2, 1)
        v = surf.vertex_count(2)
        feats = np.arange(2 * v, dtype=np.float32)[:, None]
        out = surf.patchify(surf.SurfaceSample("a", 0, feats), part, 2)
        assert out.shape[0] == 2 * part.n_patches
        np.testing.assert_array_equal(
            out[part.n_patches:, :, 0] - out[:part.n_patches, :, 0],
            np.full((part.n_patches, part.patch_size), v, np.float32))

    def test_constant_field(self):
        part = surf.build_partition(2, 1)
        v = surf.vertex_count(2)
        out = surf.patchify(
            surf.SurfaceSample("a", 0, np.full((v, 2), 3.5, np.float32)),
            part, 1)
        assert (out == 3.5).all()

    def test_dimension_mismatch(self):
        part = surf.build_partition(2, 1)
        with pytest.raises(InputError):
            surf.patchify(
                surf.SurfaceSample("a", 0, np.zeros((10, 1), np.float32)),
                part, 1)

    def test_scatter_roundtrip_constant_on_boundaries(self):
        part = surf.build_partition(2, 1)
        v = surf.vertex_count(2)
        field = np.full((v, 1), 2.25, np.float32)
        patches = surf.patchify(surf.SurfaceSample("a", 0, field), part, 1)
        np.testing.assert_array_equal(
            surf.unpatchify(patches[:, :, 0], part, 1), field[:, 0])

    def test_unpatchify_inverts_patchify(self):
        part = surf.build_partition(3, 1)
        v = surf.vertex_count(3)
        field = np.random.default_rng(0).normal(size=(2 * v, 2)).astype(
            np.float32)
        patches = surf.patchify(surf.SurfaceSample("a", 0, field), part, 2)
        for c in range(2):
            assert (surf.unpatchify(patches[:, :, c], part, 2).tobytes()
                    == field[:, c].astype(np.float64).tobytes())

    def test_unpatchify_masks_non_finite_rows(self):
        part = surf.build_partition(2, 1)
        values = np.ones((part.n_patches, part.patch_size))
        values[0, 3] = np.nan
        values[1] = np.inf
        out = surf.unpatchify(values, part, 1)
        claimed = np.zeros(surf.vertex_count(2), dtype=bool)
        claimed[part.patch_vertex_indices[2:].reshape(-1)] = True
        assert (np.isnan(out) == ~claimed).all()
        assert (out[claimed] == 1.0).all()


ID_RULE = ("key 'id' must be a nonempty string without '/', ',', line break "
           "or NUL")


class TestDatasetIO:
    def _write_dataset(self, tmp_path, n=4):
        v = surf.vertex_count(1)
        rng = np.random.default_rng(0)
        subjects = []
        feats_all = {}
        for i in range(n):
            sid = f"s{i}"
            feats = rng.normal(size=(v, 2)).astype(np.float32)
            surf.save_sample(str(tmp_path / f"{sid}.f32"), feats)
            split = "train" if i < 2 else ("val" if i == 2 else "test")
            subjects.append({"id": sid, "label": i % 2, "split": split,
                             "path": f"{sid}.f32"})
            feats_all[sid] = feats
        manifest = surf.DatasetManifest(
            mesh_order=1, patch_order=0, hemispheres=1,
            channels=["thickness", "curv"],
            stats={"thickness": {"mean": 0.1, "std": 2.0},
                   "curv": {"mean": 0.0, "std": 1.0}},
            subjects=subjects)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest.to_dict()))
        return path, feats_all

    def test_roundtrip_bit_exact(self, tmp_path):
        path, feats_all = self._write_dataset(tmp_path)
        _, splits = surf.load_dataset(str(path))
        for s in splits["train"] + splits["val"] + splits["test"]:
            assert s.features.tobytes() == feats_all[s.subject_id].tobytes()

    def test_identity_normalization(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        manifest, splits = surf.load_dataset(str(path))
        s = splits["train"][0]
        out = surf.normalize(s, {"thickness": {"mean": 0.0, "std": 1.0},
                                 "curv": {"mean": 0.0, "std": 1.0}},
                             manifest.channels)
        np.testing.assert_array_equal(out.features, s.features)

    def test_normalized_stats(self, tmp_path):
        path, _ = self._write_dataset(tmp_path, n=6)
        manifest, splits = surf.load_dataset(str(path))
        stats = surf.compute_stats(splits["train"], manifest.channels)
        normed = [surf.normalize(s, stats, manifest.channels)
                  for s in splits["train"]]
        after = surf.compute_stats(normed, manifest.channels)
        for ch in manifest.channels:
            assert abs(after[ch]["mean"]) < 1e-4
            assert abs(after[ch]["std"] - 1.0) < 1e-3

    def test_length_mismatch(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        (tmp_path / "s0.f32").write_bytes(b"\x00" * 8)
        with pytest.raises(InputError, match="bytes"):
            surf.load_dataset(str(path))

    def test_one_float_too_many(self, tmp_path):
        """A file longer than the manifest's shape is refused by its size,
        with the message of a short one."""
        path, _ = self._write_dataset(tmp_path)
        sample = tmp_path / "s0.f32"
        expect = sample.stat().st_size
        with open(sample, "ab") as f:
            f.write(np.float32(1.0).tobytes())
        with pytest.raises(InputError, match=re.escape(
                f"{sample}: {expect + 4} bytes, expected {expect}")):
            surf.load_dataset(str(path))

    @pytest.mark.parametrize("split", surf.SPLITS)
    def test_wanted_subjects_only_are_read(self, tmp_path, split):
        """Every entry is checked, and only the wanted subjects' files are
        read: a missing file of another subject stops nothing."""
        path, feats_all = self._write_dataset(tmp_path)
        every = json.loads(path.read_text())["subjects"]
        for entry in every:
            if entry["split"] != split:
                (tmp_path / entry["path"]).unlink()
        manifest, splits = surf.load_dataset(
            str(path), lambda entry: entry["split"] == split)
        assert manifest.subjects == every
        assert {s: [x.subject_id for x in splits[s]] for s in surf.SPLITS} \
            == {s: [e["id"] for e in every if e["split"] == split == s]
                for s in surf.SPLITS}
        for x in splits[split]:
            assert x.features.tobytes() == feats_all[x.subject_id].tobytes()

    def test_unwanted_entries_are_still_checked(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        data = json.loads(path.read_text())
        data["subjects"][3].update(id="s0")
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match=re.escape(
                f"{path}: subject 3: key 'id' must be unique, got 's0' "
                "again")):
            surf.load_dataset(str(path), lambda entry: False)

    def test_missing_file(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        (tmp_path / "s1.f32").unlink()
        with pytest.raises(FileNotFoundError):
            surf.load_dataset(str(path))

    def test_unknown_split(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        data = json.loads(path.read_text())
        data["subjects"][0]["split"] = "holdout"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match="split"):
            surf.load_dataset(str(path))

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("stats"), "missing key 'stats'"),
        (lambda d: d.pop("mesh_order"), "missing key 'mesh_order'"),
        (lambda d: d["stats"].pop("curv"),
         "key 'stats' must hold one {mean, std} pair of numbers per channel"),
        (lambda d: d.pop("subjects"), "missing key 'subjects'"),
        (lambda d: d["subjects"][1].pop("label"),
         "subject 1: missing key 'label'"),
        (lambda d: d["subjects"][2].update(label="1"),
         "subject 2: key 'label' must be 0 or 1"),
        (lambda d: d["subjects"].append(5), "subject 4: missing key 'id'"),
        (lambda d: d["subjects"][3].update(id="s0"),
         "subject 3: key 'id' must be unique, got 's0' again"),
        (lambda d: d["subjects"][2].update(id="x/y"),
         f"subject 2: {ID_RULE}, got 'x/y'"),
        (lambda d: d["stats"]["curv"].update(std=-1),
         "stats.curv: key 'std' must be a number > 0, got -1"),
        (lambda d: d.update(patch_order=2),
         "patch order must not exceed mesh order"),
        (lambda d: d["subjects"][2].update(id="a,b"),
         f"subject 2: {ID_RULE}, got 'a,b'"),
        (lambda d: d["subjects"][1].update(id=""),
         f"subject 1: {ID_RULE}, got ''"),
        (lambda d: d["subjects"][0].update(id="x\ny"),
         f"subject 0: {ID_RULE}, got 'x\\ny'"),
        (lambda d: d["subjects"][3].update(id="x\r"),
         f"subject 3: {ID_RULE}, got 'x\\r'"),
        (lambda d: d["subjects"][2].update(id="a\0b"),
         f"subject 2: {ID_RULE}, got 'a\\x00b'")])
    def test_malformed_manifest_names_it_and_the_key(self, tmp_path, edit,
                                                      message):
        path, _ = self._write_dataset(tmp_path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(InputError,
                           match=re.escape(f"{path}: {message}")):
            surf.load_dataset(str(path))

    @pytest.mark.parametrize("order", [100, 10 ** 12])
    def test_outsized_mesh_order_is_refused_before_any_power(
            self, tmp_path, unbuilt, order):
        """The order rule refuses an order above 29 before any power of it,
        and the refusal names the manifest and the key."""
        path, _ = self._write_dataset(tmp_path)
        data = json.loads(path.read_text())
        data["mesh_order"] = order
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match=re.escape(
                f"{path}: key 'mesh_order' must be an integer in [0, 29], "
                f"got {order}")):
            surf.load_dataset(str(path))

    def test_order_29_is_refused_by_the_subject_bytes(self, tmp_path,
                                                      unbuilt):
        """The largest order the rule passes is refused by the first
        subject's byte count, and builds nothing."""
        path, _ = self._write_dataset(tmp_path)
        data = json.loads(path.read_text())
        data["mesh_order"] = 29
        path.write_text(json.dumps(data))
        first = tmp_path / "s0.f32"
        with pytest.raises(InputError, match=re.escape(
                f"{first}: {first.stat().st_size} bytes, expected "
                f"{surf.vertex_count(29) * 2 * 4}")):
            surf.load_dataset(str(path))

    def test_manifest_not_json(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        path.write_text(path.read_text()[:-1])
        with pytest.raises(InputError,
                           match=re.escape(f"{path}: not valid JSON")):
            surf.load_dataset(str(path))


class TestPly:
    def test_header_and_counts(self, tmp_path):
        mesh = surf.build_icosphere(0)
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh, scalar=np.arange(12.0))
        lines = p.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 12" in lines
        assert "element face 20" in lines
        assert len(lines) == lines.index("end_header") + 1 + 12 + 20

    def test_nan_sentinel(self, tmp_path):
        mesh = surf.build_icosphere(0)
        scalar = np.full(12, np.nan)
        scalar[0] = 1.0
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh, scalar=scalar)
        body = p.read_text()
        assert body.count(" nan") == 11

    @pytest.mark.parametrize("case", ["none", "scalar"])
    def test_pinned_bytes(self, tmp_path, case):
        mesh = surf.build_icosphere(3)
        scalar = pinned_scalar(mesh) if case == "scalar" else None
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh, scalar=scalar)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == PLY_SHA256[case]

    def test_one_mesh_writes_what_a_fresh_mesh_writes(self, tmp_path):
        """The mesh keeps its geometry's text between files: a bare PLY,
        the pinned scalar, another scalar and a bare PLY again, written
        in that order on one mesh, are each the bytes of a fresh mesh."""
        mesh = surf.build_icosphere(3)
        other = np.linspace(-1.0, 1.0, mesh.n_vertices)
        cases = [("none", None), ("scalar", pinned_scalar(mesh)),
                 (None, other), ("none", None)]
        for i, (pin, scalar) in enumerate(cases):
            kept, fresh = tmp_path / f"kept{i}.ply", tmp_path / f"fresh{i}.ply"
            surf.write_ply(str(kept), mesh, scalar=scalar)
            surf.write_ply(str(fresh), surf.build_icosphere(3), scalar=scalar)
            assert kept.read_bytes() == fresh.read_bytes()
            if pin is not None:
                assert hashlib.sha256(kept.read_bytes()).hexdigest() == \
                    PLY_SHA256[pin]

    @pytest.mark.parametrize("shape", [(12, 2), (12, 1), (1, 12), (11,),
                                       (13,), ()],
                             ids=lambda s: "x".join(map(str, s)) or "0-d")
    def test_scalar_must_be_one_value_per_vertex(self, tmp_path, shape):
        p = tmp_path / "m.ply"
        with pytest.raises(InputError,
                           match=re.escape(f"must have shape (12,), one "
                                           f"value per vertex, got {shape}")):
            surf.write_ply(str(p), surf.build_icosphere(0),
                           scalar=np.zeros(shape))
        assert not p.exists()


def percent_ply(mesh, scalar=None, name="value"):
    """The PLY text of `write_ply`, every number formatted by `"%.8f" %`
    and `"%d" %` one at a time."""
    lines = ["ply", "format ascii 1.0", f"element vertex {mesh.n_vertices}",
             "property float x", "property float y", "property float z"]
    rows = mesh.vertices.tolist()
    if scalar is not None:
        lines.append(f"property float {name}")
        column = np.asarray(scalar, dtype=np.float64)
        rows = [r + [s if np.isfinite(s) else np.nan]
                for r, s in zip(rows, column.tolist())]
    lines += [f"element face {mesh.n_faces}",
              "property list uchar int vertex_indices", "end_header"]
    lines += [" ".join("%.8f" % v for v in r) for r in rows]
    lines += ["3 " + " ".join("%d" % i for i in f)
              for f in mesh.faces.tolist()]
    return ("\n".join(lines) + "\n").encode()


_TIES = np.arange(-1280, 1281) / 512  # exact decimal ties at 8 places
# scalar case -> values, repeated to fill the order-4 mesh's 2562 vertices
SCALARS = {
    "ties": _TIES,
    "above_ties": np.nextafter(_TIES, np.inf),
    "below_ties": np.nextafter(_TIES, -np.inf),
    # the doubles nearest (2i + 1)·5e-9, just off a tie at 8 places
    "decimal_halves": np.array([float(f"{2 * i + 1}e-9")
                                for i in range(-1280, 1281)]),
    "specials": np.array([
        0.0, -0.0, -1e-12, 1e-12, 0.999999995, -0.999999995, 5e-9, -5e-9,
        99999.99999999, 99999.999999996, -99999.999999996, 1e5, -123456.5,
        1234567.891, 9999999.999999999, 1e7, -1e7, 12345678.9, 1e300,
        -1e300, float(np.finfo(np.float32).max), np.nan, np.inf, -np.inf]),
    "float32": np.random.default_rng(3).normal(size=2562).astype(np.float32),
}


class TestPlyFormatsAsPercent:
    """`write_ply` writes the text of `%` formatting, byte for byte."""

    @pytest.mark.parametrize("order", range(7))
    def test_bare_geometry(self, tmp_path, order):
        mesh = surf.build_icosphere(order)
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh)
        assert p.read_bytes() == percent_ply(mesh)

    @pytest.mark.parametrize("case", SCALARS)
    def test_scalar(self, tmp_path, case):
        mesh = surf.build_icosphere(4)
        scalar = np.resize(SCALARS[case], mesh.n_vertices)
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh, scalar=scalar, scalar_name="feature")
        assert p.read_bytes() == percent_ply(mesh, scalar, "feature")

    def test_face_indices_of_eight_digits(self, tmp_path):
        vertices = surf.build_icosphere(0).vertices
        faces = np.array([[0, 1, 2], [9999999, 10000000, 3],
                          [123456789, 0, 11], [4, 5, 6], [10**7, 10**8, 7],
                          [8, 9, 10]])
        mesh = surf.IcosphereMesh(vertices=vertices, faces=faces)
        p = tmp_path / "m.ply"
        surf.write_ply(str(p), mesh, scalar=np.linspace(-1.0, 1.0, 12))
        assert p.read_bytes() == percent_ply(mesh, np.linspace(-1.0, 1.0, 12))


def pinned_scalar(mesh):
    """The scalar of PLY_SHA256["scalar"]: float32, with NaN, +inf, -inf
    and -0.0."""
    scalar = np.random.default_rng(7).normal(
        size=mesh.n_vertices).astype(np.float32)
    scalar[[0, 1, 2, 3]] = [np.nan, np.inf, -np.inf, -0.0]
    return scalar
