import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.datasets import N_FEATURES, SCENARIOS, TRAIN_FRACTION
from helpers import traced_peak_bytes, write_nbaiot_layout


def padded(row, n_cols=N_FEATURES):
    """``row`` with zero cells appended up to ``n_cols`` cells."""
    return [*row, *[0] * (n_cols - len(row))]


def write_csv(path, rows, n_cols=N_FEATURES):
    """A header of ``n_cols`` names, then each row padded with zero cells to ``n_cols``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(n_cols)])
        writer.writerows(padded(row, n_cols) for row in rows)


HEADER = ",".join(f"f{i}" for i in range(N_FEATURES)) + "\n"


def csv_line(*cells):
    """One N-BaIoT-width CSV line whose first cells are ``cells``, as text."""
    return ",".join(str(cell) for cell in padded(cells)) + "\n"


class TestLoadCsvDir:
    def test_concatenates_files_in_name_order(self, tmp_path):
        write_csv(tmp_path / "benign.csv", [[i, i, i] for i in range(10)])
        write_csv(tmp_path / "mirai_ack.csv", [[9, 9, 9]] * 5)
        ds = pf.load_csv_dir(tmp_path)
        assert ds.n_samples == 15
        assert ds.labels.tolist() == [0] * 10 + [2] * 5

    def test_class_is_the_first_class_name_in_the_lower_cased_file_name(self, tmp_path):
        # Names are tried in class order, not in the order they appear in the file name.
        write_csv(tmp_path / "3.Mirai.ACK.csv", [[1]])
        write_csv(tmp_path / "mirai-benign.csv", [[2]])
        ds = pf.load_csv_dir(tmp_path)
        assert ds.class_names == ("benign", "gafgyt", "mirai")
        assert [ds.class_names[c] for c in ds.labels] == ["mirai", "benign"]

    def test_column_count_mismatch_names_file(self, tmp_path):
        write_csv(tmp_path / "benign.csv", [[1, 2]], N_FEATURES - 1)
        with pytest.raises(ValueError, match=r"^benign.csv: column count mismatch \(got 114, expects 115\)$"):
            pf.load_csv_dir(tmp_path)

    def test_bit_exact_against_independent_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        expected_rows = []
        for name in ("benign.csv", "gafgyt_udp.csv", "mirai_syn.csv"):
            rows = rng.normal(size=(4, N_FEATURES)).tolist()
            write_csv(tmp_path / name, rows)
        # Independent reader: plain text split, no csv module involved.
        for name in sorted(p.name for p in tmp_path.iterdir()):
            lines = (tmp_path / name).read_text().strip().split("\n")[1:]
            expected_rows.extend([float(cell) for cell in line.split(",")] for line in lines)
        ds = pf.load_csv_dir(tmp_path)
        assert ds.features.tolist() == expected_rows

    def test_non_numeric_cell_names_file_and_row(self, tmp_path):
        write_csv(tmp_path / "benign.csv", [[1, 2, 3], [4, "oops", 6]])
        with pytest.raises(ValueError, match="benign.csv row 3.*non-numeric"):
            pf.load_csv_dir(tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_file_and_row(self, tmp_path, cell):
        write_csv(tmp_path / "benign.csv", [[1, 2, 3]])
        write_csv(tmp_path / "gafgyt.csv", [])
        write_csv(tmp_path / "mirai.csv", [[1, 2, 3], [4, 5, 6], [7, cell, 9]])
        with pytest.raises(ValueError, match="mirai.csv row 4: non-finite cell"):
            pf.load_csv_dir(tmp_path)

    def test_directory_stops_at_its_first_bad_row_in_file_name_order(self, tmp_path):
        write_csv(tmp_path / "a.benign.csv", [[1, "nan", 3]])
        write_csv(tmp_path / "b.gafgyt.csv", [["oops", 2, 3]])
        with pytest.raises(ValueError, match=r"^a\.benign\.csv row 2: non-finite cell nan$"):
            pf.load_csv_dir(tmp_path)

    @pytest.mark.parametrize("body, row", [
        ("{row}\n\n{row}\n", 3),
        ("{row}\n{row}\n\n", 4),
        ("{row}\r\n\r\n{row}\r\n", 3),
        ("{row}\r\r\n{row}\n", 3),
    ], ids=["mid-file", "trailing", "crlf", "lone-cr"])
    def test_blank_line_is_a_row_of_zero_columns(self, tmp_path, body, row):
        full_row = csv_line(1, 2, 3).rstrip("\n")
        (tmp_path / "benign.csv").write_text(HEADER + body.format(row=full_row), newline="")
        expected = rf"benign.csv row {row}: column count mismatch \(got 0,"
        with pytest.raises(ValueError, match=expected):
            pf.load_csv_dir(tmp_path)

    def test_header_only_file_adds_no_rows(self, tmp_path):
        write_csv(tmp_path / "benign.csv", [[1, 2, 3], [4, 5, 6]])
        write_csv(tmp_path / "gafgyt.csv", [])
        ds = pf.load_csv_dir(tmp_path)
        assert ds.features.tolist() == [padded([1, 2, 3]), padded([4, 5, 6])]
        assert ds.class_counts().tolist() == [2, 0, 0]

    def test_cells_only_the_row_reader_accepts(self, tmp_path):
        # float() takes digit separators and csv unquotes cells; loadtxt does
        # neither, so these files load through the row reader.
        (tmp_path / "benign.csv").write_text(HEADER + csv_line("1_0", '"1.5"', 3) + csv_line(4, 5, 6))
        ds = pf.load_csv_dir(tmp_path)
        assert ds.features.tolist() == [padded([10.0, 1.5, 3.0]), padded([4.0, 5.0, 6.0])]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            # Bounded so that rounding to ten digits cannot overflow to inf.
            st.lists(st.floats(-1e308, 1e308), min_size=3, max_size=3),
            min_size=1, max_size=20,
        ),
        style=st.sampled_from([repr, lambda v: format(v, ".10g")]),
    )
    def test_cells_load_bit_equal_to_float(self, tmp_path_factory, values, style):
        root = tmp_path_factory.mktemp("csv")
        cells = [padded([style(v) for v in row]) for row in values]
        (root / "mirai.csv").write_text(HEADER + "".join(csv_line(*row) for row in cells))
        expected = np.array([[float(cell) for cell in row] for row in cells])
        loaded = pf.load_csv_dir(root).features
        assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))

    def test_non_utf8_bytes_name_file_and_row(self, tmp_path):
        text = HEADER + csv_line(1, 2, 3) + csv_line(4, "@", 6) + csv_line(7, 8, 9)
        (tmp_path / "1.benign.csv").write_bytes(text.encode().replace(b"@", b"\xff"))
        expected = r"^1.benign.csv row 3: not UTF-8 text \(invalid start byte\)$"
        with pytest.raises(ValueError, match=expected):
            pf.load_csv_dir(tmp_path)

    @pytest.mark.parametrize("text, row", [
        ("f\0" + HEADER + csv_line(1, 2, 3), 1),
        (HEADER + csv_line(1, 2, 3) + csv_line("1\x000", 5, 6) + csv_line(7, 8, 9), 3),
    ], ids=["header", "body-cell"])
    def test_nul_character_names_file_and_row(self, tmp_path, text, row):
        # Before Python 3.11, csv.reader raised its own error, naming neither.
        (tmp_path / "a.benign.csv").write_text(text)
        with pytest.raises(ValueError, match=rf"^a.benign.csv row {row}: NUL character$"):
            pf.load_csv_dir(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pf.load_csv_dir(tmp_path / "nope")

    @pytest.mark.parametrize("name, message", [
        ("benign.txt", "^no CSV files found under "),
        ("benign.csv", "^benign.csv: empty file$"),
    ], ids=["no-csv-file", "zero-byte-csv"])
    def test_directory_with_nothing_to_read_is_rejected(self, tmp_path, name, message):
        (tmp_path / name).write_bytes(b"")
        with pytest.raises(ValueError, match=message):
            pf.load_csv_dir(tmp_path)

    def test_unmatched_file_name(self, tmp_path):
        write_csv(tmp_path / "mystery.csv", [[1, 2, 3]])
        with pytest.raises(ValueError, match="mystery.csv: file name contains none of benign, gafgyt, mirai"):
            pf.load_csv_dir(tmp_path)


class TestMinMaxScale:
    def test_affine_map(self):
        ds = pf.Dataset(np.array([[0.0], [1.0], [2.0]]), [0, 0, 0], ("a",))
        assert pf.min_max_scale(ds).features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = pf.Dataset(np.array([[7.0], [7.0], [7.0]]), [0, 0, 0], ("a",))
        assert pf.min_max_scale(ds).features[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_matches_per_column_loop_oracle(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(5, 3))
        ds = pf.Dataset(raw, [0] * 5, ("a",))
        scaled = pf.min_max_scale(ds).features
        for col in range(3):
            lo, hi = raw[:, col].min(), raw[:, col].max()
            for row in range(5):
                expected = (raw[row, col] - lo) / (hi - lo)
                assert scaled[row, col] == pytest.approx(expected, abs=1e-12)

    def test_empty_dataset_rejected(self):
        ds = pf.Dataset(np.empty((0, 2)), [], ("a",))
        with pytest.raises(ValueError, match="empty"):
            pf.min_max_scale(ds)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_scaling_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        ds = pf.Dataset(rng.normal(size=(6, 4)) * 10, [0] * 6, ("a",))
        once = pf.min_max_scale(ds)
        twice = pf.min_max_scale(once)
        assert np.array_equal(once.features, twice.features)
        assert once.features.min() >= 0.0 and once.features.max() <= 1.0


class TestStratifiedSplit:
    def test_exact_proportions(self):
        rng = np.random.default_rng(0)
        ds = pf.Dataset(rng.random((100, 2)), [0] * 50 + [1] * 50, ("a", "b"))
        train, test = pf.stratified_split(ds, seed=3)
        assert train.n_samples == 80 and test.n_samples == 20
        assert train.class_counts().tolist() == [40, 40]
        assert test.class_counts().tolist() == [10, 10]

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(1)
        ds = pf.Dataset(rng.random((40, 2)), [0] * 20 + [1] * 20, ("a", "b"))
        first = pf.stratified_split(ds, seed=9)
        second = pf.stratified_split(ds, seed=9)
        assert np.array_equal(first[0].features, second[0].features)
        assert np.array_equal(first[1].features, second[1].features)

    def test_floor_rule_per_class(self):
        rng = np.random.default_rng(2)
        ds = pf.Dataset(rng.random((20, 2)), [0] * 7 + [1] * 13, ("a", "b"))
        train, _ = pf.stratified_split(ds, seed=0)
        # floor(0.8 * 7) = 5, floor(0.8 * 13) = 10, hand-checked
        assert TRAIN_FRACTION == 0.8
        assert train.class_counts().tolist() == [5, 10]

    def test_split_partitions_the_input(self):
        rng = np.random.default_rng(3)
        ds = pf.Dataset(rng.random((30, 2)), [0] * 12 + [1] * 18, ("a", "b"))
        train, test = pf.stratified_split(ds, seed=4)
        merged = np.vstack([train.features, test.features])
        assert merged.shape[0] == 30
        assert {tuple(r) for r in merged} == {tuple(r) for r in ds.features}

    def test_single_sample_class_rejected(self):
        ds = pf.Dataset(np.random.default_rng(0).random((3, 2)), [0, 0, 1], ("a", "b"))
        with pytest.raises(ValueError, match="'b' has 1 sample"):
            pf.stratified_split(ds, seed=0)


def three_branch_plan(scenario, class_counts, n_clients):
    """Reference quotas: the three algorithms that the one decay rule replaced."""
    counts = np.asarray(class_counts, dtype=np.int64)
    n_classes = counts.size
    if scenario == "iid":
        quotas = [[int(counts[c]) // n_clients for c in range(n_classes)] for _ in range(n_clients)]
    elif scenario in ("light", "moderate"):
        decay = 0.5 if scenario == "light" else 0.15
        weights = decay ** np.arange(n_classes, dtype=np.float64)
        total_w = [sum(weights[(c - j) % n_classes] for j in range(n_clients))
                   for c in range(n_classes)]
        quotas = [
            [math.floor(counts[c] * weights[(c - k) % n_classes] / total_w[c])
             for c in range(n_classes)]
            for k in range(n_clients)
        ]
    else:
        assert scenario == "severe"
        owners = [[] for _ in range(n_classes)]
        for k in range(n_clients):
            owners[k % n_classes].append(k)
        quotas = [[0] * n_classes for _ in range(n_clients)]
        for c in range(n_classes):
            for k in owners[c]:
                quotas[k][c] = int(counts[c]) // max(1, len(owners[c]))
    return tuple(tuple(row) for row in quotas)


class TestPartition:
    def make_ds(self, counts, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(counts)])
        names = tuple(f"c{i}" for i in range(len(counts)))
        return pf.Dataset(rng.random((labels.size, 2)), labels, names)

    def test_severe_assigns_one_class_per_client(self):
        ds = self.make_ds([30, 30, 30])
        plan = pf.build_partition_plan("severe", ds.class_counts(), 3)
        shards = pf.partition(ds, plan, seed=1)
        assert shards[0].class_counts().tolist() == [30, 0, 0]
        assert shards[1].class_counts().tolist() == [0, 30, 0]
        assert shards[2].class_counts().tolist() == [0, 0, 30]

    def test_iid_quota_exactness(self):
        ds = self.make_ds([30, 60, 90])
        plan = pf.build_partition_plan("iid", ds.class_counts(), 3)
        shards = pf.partition(ds, plan, seed=1)
        for shard in shards:
            assert shard.class_counts().tolist() == [10, 20, 30]

    def test_unsatisfiable_quota_names_class_and_shortfall(self):
        ds = self.make_ds([40, 40])
        with pytest.raises(ValueError, match="'c0'.*requested 50, available 40.*short 10"):
            pf.partition(ds, ((25, 10), (25, 10)), seed=0)

    def test_light_plan_keeps_every_class_everywhere(self):
        ds = self.make_ds([90, 90, 90])
        plan = pf.build_partition_plan("light", ds.class_counts(), 3)
        shards = pf.partition(ds, plan, seed=2)
        for shard in shards:
            assert (shard.class_counts() > 0).all()
        # shares differ across clients: the histogram is skewed
        assert shards[0].class_counts().tolist() != shards[1].class_counts().tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_disjoint_and_quota_exact_for_random_plans(self, data):
        counts = data.draw(st.lists(st.integers(5, 25), min_size=2, max_size=4))
        n_clients = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 1000))
        scenario = data.draw(st.sampled_from(("random", "iid", "light", "moderate", "severe")))
        ds = self.make_ds(counts, seed=seed)
        rng = np.random.default_rng(seed)
        if scenario == "random":
            quotas = tuple(
                tuple(int(rng.integers(0, counts[c] // n_clients + 1)) for c in range(len(counts)))
                for _ in range(n_clients)
            )
        else:
            quotas = pf.build_partition_plan(scenario, ds.class_counts(), n_clients)
        shards = pf.partition(ds, quotas, seed=seed)
        assert len(shards) == n_clients
        seen = set()
        for k, shard in enumerate(shards):
            assert shard.class_counts().tolist() == list(quotas[k])
            if scenario == "severe":
                # exactly one class per client: class k, shared round-robin
                assert np.flatnonzero(shard.class_counts()).tolist() == [k % len(counts)]
            rows = {tuple(r) for r in shard.features}
            assert not rows & seen
            seen |= rows

    def test_plan_matches_the_three_branch_reference(self):
        rng = np.random.default_rng(22)
        for n_classes in range(1, 8):
            vectors = [[400] * n_classes, *rng.integers(0, 5000, (5, n_classes)).tolist()]
            for n_clients in (*range(1, 15), 31, 100):
                for counts in vectors:
                    for scenario in SCENARIOS:
                        plan = pf.build_partition_plan(scenario, counts, n_clients)
                        assert plan == three_branch_plan(scenario, counts, n_clients), (
                            scenario, counts, n_clients)
                        assert all(type(q) is int for row in plan for q in row)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown scenario 'extreme'; expected one of \("):
            pf.build_partition_plan("extreme", [5, 5], 2)

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError, match="client 0: quotas must be non-negative"):
            pf.partition(self.make_ds([5, 5]), ((-1, 5),), seed=0)

    @pytest.mark.parametrize("quotas", [((1, 1), (1,)), ((1, 1, 1),)], ids=["ragged", "too-wide"])
    def test_quota_row_must_cover_every_class(self, quotas):
        with pytest.raises(ValueError, match=r"client \d: quota row covers \d classes but dataset has 2"):
            pf.partition(self.make_ds([5, 5]), quotas, seed=0)


def reference_stratified_split(ds, train_fraction, seed):
    """stratified_split's own per-class loop, from before it shared partition's cut."""
    if ds.n_samples == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for class_id in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == class_id)
        if idx.size == 0:
            continue
        if idx.size < 2:
            raise ValueError(
                f"class {ds.class_names[class_id]!r} has {idx.size} sample(s); "
                "need at least 2 to split"
            )
        perm = rng.permutation(idx)
        n_train = max(1, math.floor(train_fraction * idx.size))
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return ds.select(np.sort(np.concatenate(train_idx))), ds.select(np.sort(np.concatenate(test_idx)))


def reference_partition(ds, quotas, seed):
    """partition's own per-class loop, from before it shared stratified_split's cut."""
    rng = np.random.default_rng(seed)
    pools = []
    for class_id in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == class_id)
        need = sum(row[class_id] for row in quotas)
        if need > idx.size:
            raise ValueError(
                f"unsatisfiable quota for class {ds.class_names[class_id]!r}: "
                f"requested {need}, available {idx.size} (short {need - idx.size})"
            )
        pools.append(rng.permutation(idx))
    cursors = [0] * ds.n_classes
    shards = []
    for row in quotas:
        taken = []
        for class_id, quota in enumerate(row):
            taken.append(pools[class_id][cursors[class_id] : cursors[class_id] + quota])
            cursors[class_id] += quota
        shards.append(ds.select(np.concatenate(taken)))
    return shards


def outcome(split, *args):
    """The bytes of each Dataset ``split`` returns, or the error it raises."""
    try:
        parts = split(*args)
    except ValueError as err:
        return str(err)
    return [(part.features.tobytes(), part.labels.tobytes()) for part in parts]


@st.composite
def shuffled_classes(draw):
    """A Dataset of classes with 0, 1 or many rows, its labels in a drawn order
    and each row's features unique."""
    counts = draw(st.lists(st.one_of(st.just(0), st.just(1), st.integers(2, 30)),
                           min_size=1, max_size=4))
    labels = np.repeat(np.arange(len(counts)), counts)
    labels = np.random.default_rng(draw(st.integers(0, 1000))).permutation(labels)
    features = np.arange(2.0 * labels.size).reshape(-1, 2)
    return pf.Dataset(features, labels, tuple(f"c{i}" for i in range(len(counts))))


class TestSharedCut:
    """partition and stratified_split, sharing one per-class cut, give the
    bytes and errors of the per-class loops each used to run."""

    @settings(max_examples=300, deadline=None)
    @given(shuffled_classes(), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
    def test_partition_matches_its_reference_loop(self, ds, n_clients, seed, data):
        # Each class's quotas are the gaps between sorted cuts in [0, count],
        # so they fit, until a drawn excess is added to one of them.
        columns = []
        for count in ds.class_counts().tolist():
            cuts = sorted(data.draw(st.lists(st.integers(0, count), min_size=n_clients,
                                             max_size=n_clients)))
            columns.append(np.diff([0, *cuts]).tolist())
        quotas = [list(row) for row in zip(*columns)]
        if quotas:
            excess = data.draw(st.integers(0, 2))
            quotas[0][data.draw(st.integers(0, ds.n_classes - 1))] += excess
        assert outcome(pf.partition, ds, quotas, seed) == outcome(reference_partition, ds, quotas, seed)

    @settings(max_examples=300, deadline=None)
    @given(shuffled_classes(), st.integers(0, 2**32 - 1))
    def test_stratified_split_matches_its_reference_loop(self, ds, seed):
        assert (outcome(pf.stratified_split, ds, seed)
                == outcome(reference_stratified_split, ds, TRAIN_FRACTION, seed))


class TestSynthesize:
    def test_counts_balanced(self):
        ds = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=10, cluster_spread=0.05,
                                            samples_per_class=200, clusters_per_class=2, seed=7))
        assert ds.n_samples == 600
        assert ds.class_counts().tolist() == [200, 200, 200]

    def test_deterministic_per_seed(self):
        spec = pf.SyntheticSpec(n_classes=2, dims=5, cluster_spread=0.1,
                                samples_per_class=50, clusters_per_class=2, seed=13)
        first = pf.synthesize(spec)
        second = pf.synthesize(spec)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)

    def test_nearest_centroid_separates_tight_classes(self):
        ds = pf.synthesize(pf.SyntheticSpec(n_classes=2, dims=8, cluster_spread=0.01,
                                            samples_per_class=150, seed=3))
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        d2 = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        accuracy = (d2.argmin(axis=1) == ds.labels).mean()
        assert accuracy >= 0.99

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="cluster_spread"):
            pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=0.0, samples_per_class=10, seed=0)
        with pytest.raises(ValueError, match="n_classes"):
            pf.SyntheticSpec(n_classes=0, dims=3, cluster_spread=0.1, samples_per_class=10, seed=0)


class TestDatasetInvariants:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels must lie"):
            pf.Dataset(np.zeros((2, 2)), [0, 5], ("a", "b"))

    def test_length_mismatch_checked(self):
        with pytest.raises(ValueError, match="rows but labels"):
            pf.Dataset(np.zeros((3, 2)), [0, 1], ("a", "b"))

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match=r"^features must be 2-D, got shape \(3,\)$"):
            pf.Dataset(np.zeros(3), [0, 1, 0], ("a", "b"))

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^labels must be 1-D, got shape \(3, 1\)$"):
            pf.Dataset(np.zeros((3, 2)), [[0], [1], [0]], ("a", "b"))

    def test_empty_class_names_rejected(self):
        with pytest.raises(ValueError, match="^class_names must not be empty$"):
            pf.Dataset(np.zeros((0, 2)), [], ())

    def test_arrays_are_frozen(self):
        ds = pf.Dataset(np.zeros((2, 2)), [0, 0], ("a",))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_read_only_owning_array_is_adopted(self):
        features = np.zeros((3, 2))
        labels = np.array([0, 1, 0])
        features.setflags(write=False)
        labels.setflags(write=False)
        ds = pf.Dataset(features, labels, ("a", "b"))
        assert ds.features is features
        assert ds.labels is labels

    def test_writable_array_is_copied(self):
        features = np.zeros((3, 2))
        ds = pf.Dataset(features, np.array([0, 1, 0]), ("a", "b"))
        assert ds.features is not features
        assert features.flags.writeable
        assert not np.shares_memory(ds.features, features)
        features[0, 0] = 1.0
        assert ds.features[0, 0] == 0.0

    def test_read_only_view_is_copied(self):
        base = np.zeros((4, 2))
        base.setflags(write=False)
        view = base[1:]
        ds = pf.Dataset(view, np.array([0, 1, 0]), ("a", "b"))
        assert ds.features is not view
        assert ds.features.flags.owndata
        assert not np.shares_memory(ds.features, base)

    def test_wrong_dtypes_are_converted(self):
        features = np.ones((2, 2), dtype=np.float32)
        labels = np.array([0, 1], dtype=np.int32)
        features.setflags(write=False)
        labels.setflags(write=False)
        ds = pf.Dataset(features, labels, ("a", "b"))
        assert ds.features.dtype == np.float64
        assert ds.labels.dtype == np.int64
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable

    def test_select_returns_owning_arrays_independent_of_source(self):
        ds = pf.Dataset(np.arange(12.0).reshape(6, 2), np.arange(6) % 2, ("a", "b"))
        part = ds.select(np.array([4, 1]))
        for mine, source in ((part.features, ds.features), (part.labels, ds.labels)):
            assert mine.flags.owndata
            assert not mine.flags.writeable
            assert not np.shares_memory(mine, source)
        assert np.array_equal(part.features, [[8.0, 9.0], [2.0, 3.0]])


class TestMemoryPeaks:
    def test_select_peaks_near_its_result(self):
        rng = np.random.default_rng(0)
        ds = pf.Dataset(rng.random((4000, 115)), rng.integers(0, 3, 4000), ("a", "b", "c"))
        rows = np.arange(0, 4000, 2)
        part, peak = traced_peak_bytes(lambda: ds.select(rows))
        assert peak <= 1.3 * (part.features.nbytes + part.labels.nbytes)

    def test_load_csv_dir_peaks_near_twice_its_result(self, tmp_path):
        # 45 files, so one file's text and parse buffers are small beside the matrix.
        write_nbaiot_layout(tmp_path / "nbaiot", seed=1, devices=9, rows=40)
        ds, peak = traced_peak_bytes(lambda: pf.load_csv_dir(tmp_path / "nbaiot"))
        assert ds.n_samples == 45 * 40
        assert peak <= 2.5 * (ds.features.nbytes + ds.labels.nbytes)
