"""TPC-C-derived workload with mid-run schema evolution.

A trimmed, embedded TPC-C: fixed-width numeric plus short varchar
columns, primary-key indexes, selection by primary key only, no think
times. Correctness of the transaction mix and of the schema-evolution
operations is the claim; absolute throughput is not.

Desk-scale sizing knobs are module constants; the standard remote-
warehouse probability and the 45/43/4/4/4 mix are kept.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from ..catalog import ColumnDef, ConstraintDef, ConstraintKind, SchemaVersion
from ..core_store import DType
from ..ddl import DdlOp, DdlResult, DdlSpec, Policy, execute_ddl
from ..txn import Engine, OverlapAbort, TxnStatus, encode_key
from .config import WorkloadConfig
from .runner import run_workload
from .series import ThroughputSeries

DISTRICTS_PER_WH = 5
CUSTOMERS_PER_DISTRICT = 30
ITEMS = 200
INITIAL_ORDERS_PER_DISTRICT = 30
STOCK_THRESHOLD_RANGE = (10, 20)

_I64 = DType.INT64
_F64 = DType.FLOAT64
_STR = DType.VARCHAR


def _cols(*specs: tuple[str, DType]) -> list[ColumnDef]:
    return [ColumnDef(name, dtype, default=_default_for(dtype))
            for name, dtype in specs]


def _default_for(dtype: DType) -> Any:
    if dtype is _I64:
        return 0
    if dtype is _F64:
        return 0.0
    return ""


TABLE_DEFS: dict[str, tuple[list[ColumnDef], tuple[str, ...]]] = {
    "warehouse": (_cols(("w_id", _I64), ("w_tax", _F64), ("w_ytd", _F64),
                        ("w_name", _STR)), ("w_id",)),
    "district": (_cols(("d_w_id", _I64), ("d_id", _I64), ("d_tax", _F64),
                       ("d_ytd", _F64), ("d_next_o_id", _I64),
                       ("d_next_deliv_o", _I64)), ("d_w_id", "d_id")),
    "customer": (_cols(("c_w_id", _I64), ("c_d_id", _I64), ("c_id", _I64),
                       ("c_balance", _F64), ("c_ytd_payment", _F64),
                       ("c_payment_cnt", _I64), ("c_credit", _STR),
                       ("c_state", _STR), ("c_city", _STR), ("c_street", _STR)),
                 ("c_w_id", "c_d_id", "c_id")),
    "history": (_cols(("h_w_id", _I64), ("h_d_id", _I64), ("h_c_id", _I64),
                      ("h_amount", _F64)), ()),
    "oorder": (_cols(("o_w_id", _I64), ("o_d_id", _I64), ("o_id", _I64),
                     ("o_c_id", _I64), ("o_carrier_id", _I64),
                     ("o_ol_cnt", _I64), ("o_entry_d", _I64)),
               ("o_w_id", "o_d_id", "o_id")),
    "new_order": (_cols(("no_w_id", _I64), ("no_d_id", _I64),
                        ("no_o_id", _I64)), ("no_w_id", "no_d_id", "no_o_id")),
    "order_line": (_cols(("ol_w_id", _I64), ("ol_d_id", _I64),
                         ("ol_o_id", _I64), ("ol_number", _I64),
                         ("ol_i_id", _I64), ("ol_supply_w_id", _I64),
                         ("ol_quantity", _I64), ("ol_amount", _F64)),
                   ("ol_w_id", "ol_d_id", "ol_o_id", "ol_number")),
    "stock": (_cols(("s_w_id", _I64), ("s_i_id", _I64), ("s_quantity", _I64),
                    ("s_ytd", _I64), ("s_order_cnt", _I64)),
              ("s_w_id", "s_i_id")),
    "item": (_cols(("i_id", _I64), ("i_price", _F64), ("i_name", _STR)),
             ("i_id",)),
}


def row_for(schema: SchemaVersion, **values: Any) -> tuple:
    """Build a payload for the given schema, defaulting unnamed columns
    (keeps transaction code valid across added/dropped columns)."""
    return tuple(values.get(c.name, c.default) for c in schema.columns)


def col(schema: SchemaVersion, payload: tuple, name: str) -> Any:
    return payload[schema.col_index(name)]


class TpccDb:
    """Handles plus per-run naming for the TPC-C table set."""

    def __init__(self, engine: Engine, cfg: WorkloadConfig) -> None:
        self.engine = engine
        self.cfg = cfg
        self.tables: dict[str, Any] = {}

    def load(self) -> None:
        engine = self.engine
        cfg = self.cfg
        rng = random.Random(cfg.seed ^ 0x7C0FFEE)
        for name, (columns, key) in TABLE_DEFS.items():
            if name == "order_line" and cfg.ddl_op == "create_index":
                key = ()  # the benchmark will build it online
            self.tables[name] = engine.create_table(name, columns,
                                                    key_cols=key)
        w_rows, d_rows, c_rows, i_rows, s_rows = [], [], [], [], []
        o_rows, no_rows, ol_rows = [], [], []
        for w in range(1, cfg.warehouses + 1):
            w_rows.append((w, round(rng.uniform(0.0, 0.2), 4), 0.0, f"W{w}"))
            for d in range(1, DISTRICTS_PER_WH + 1):
                next_o = INITIAL_ORDERS_PER_DISTRICT + 1
                d_rows.append((w, d, round(rng.uniform(0.0, 0.2), 4), 0.0,
                               next_o, max(1, next_o - 10)))
                for c in range(1, CUSTOMERS_PER_DISTRICT + 1):
                    c_rows.append((w, d, c, 0.0, 0.0, 0,
                                   rng.choice(("GC", "BC")), "ST", "CITY",
                                   f"S{c}"))
                for o in range(1, INITIAL_ORDERS_PER_DISTRICT + 1):
                    cnt = rng.randint(5, 15)
                    o_rows.append((w, d, o, rng.randint(1, CUSTOMERS_PER_DISTRICT),
                                   0, cnt, 0))
                    if o > INITIAL_ORDERS_PER_DISTRICT - 10:
                        no_rows.append((w, d, o))
                    for n in range(1, cnt + 1):
                        item = rng.randint(1, ITEMS)
                        qty = rng.randint(1, 10)
                        ol_rows.append((w, d, o, n, item, w, qty,
                                        round(qty * rng.uniform(1.0, 100.0), 2)))
            for i in range(1, ITEMS + 1):
                s_rows.append((w, i, rng.randint(10, 100), 0, 0))
        for i in range(1, ITEMS + 1):
            i_rows.append((i, round(rng.uniform(1.0, 100.0), 2), f"item-{i}"))
        engine.load_rows(self.tables["warehouse"], iter(w_rows))
        engine.load_rows(self.tables["district"], iter(d_rows))
        engine.load_rows(self.tables["customer"], iter(c_rows))
        engine.load_rows(self.tables["item"], iter(i_rows))
        engine.load_rows(self.tables["stock"], iter(s_rows))
        engine.load_rows(self.tables["oorder"], iter(o_rows))
        engine.load_rows(self.tables["new_order"], iter(no_rows))
        engine.load_rows(self.tables["order_line"], iter(ol_rows))
        engine.drain_now()

    def schema(self, txn, name: str) -> Optional[SchemaVersion]:
        got = self.engine.resolve_schema(txn, self.tables[name])
        return got[0] if got else None


class _Aborted(Exception):
    def __init__(self, reason: str = "conflict"):
        self.reason = reason


class TpccWorkload:
    """The five-transaction mix against a TpccDb."""

    def __init__(self, db: TpccDb) -> None:
        self.db = db
        self.engine = db.engine
        self.warehouses = db.cfg.warehouses

    # -- helpers -----------------------------------------------------------

    def _read_k(self, txn, name: str, key: tuple) -> tuple[Optional[tuple],
                                                           SchemaVersion]:
        table = self.db.tables[name]
        schema = self.db.schema(txn, name)
        if schema is None:
            raise _Aborted("no_schema")
        index = table.indexes.get("primary")
        if index is None:
            raise _Aborted("no_index")
        rid = index.lookup(encode_key(key))
        if rid is None:
            return None, schema
        return self.engine.read(txn, table, rid), schema

    def _write_k(self, txn, name: str, key: tuple, **updates: Any) -> tuple:
        table = self.db.tables[name]
        payload, schema = self._read_k(txn, name, key)
        if payload is None:
            raise _Aborted("missing_row")
        rid = table.indexes["primary"].lookup(encode_key(key))
        named = {c.name: v for c, v in zip(schema.columns, payload)}
        named.update(updates)
        values = tuple(named[c.name] for c in schema.columns)
        if not self.engine.write(txn, table, rid, values):
            raise _Aborted()
        return values

    def _insert(self, txn, name: str, **values: Any) -> None:
        table = self.db.tables[name]
        schema = self.db.schema(txn, name)
        if schema is None:
            raise _Aborted("no_schema")
        if self.engine.insert(txn, table, row_for(schema, **values)) is None:
            raise _Aborted()

    # -- transaction parameter generation (deterministic per seed) ----------

    def make_params(self, rng: random.Random):
        roll = rng.random()
        w = rng.randint(1, self.warehouses)
        d = rng.randint(1, DISTRICTS_PER_WH)
        c = rng.randint(1, CUSTOMERS_PER_DISTRICT)
        if roll < 0.45:
            n = rng.randint(5, 15)
            lines = []
            seen = set()
            while len(lines) < n:
                item = rng.randint(1, ITEMS)
                if item in seen:
                    continue
                seen.add(item)
                supply = w
                if self.warehouses > 1 and rng.random() < 0.01:
                    supply = rng.choice([x for x in range(1, self.warehouses + 1)
                                         if x != w])
                lines.append((item, supply, rng.randint(1, 10)))
            return ("new_order", w, d, c, tuple(lines))
        if roll < 0.88:
            return ("payment", w, d, c, round(rng.uniform(1.0, 5000.0), 2))
        if roll < 0.92:
            return ("order_status", w, d, c)
        if roll < 0.96:
            return ("delivery", w, rng.randint(1, 10))
        return ("stock_level", w, d, rng.randint(*STOCK_THRESHOLD_RANGE))

    def exec_txn(self, params) -> tuple[bool, str]:
        txn = self.engine.begin()
        try:
            kind = params[0]
            if kind == "new_order":
                self._new_order(txn, *params[1:])
            elif kind == "payment":
                self._payment(txn, *params[1:])
            elif kind == "order_status":
                self._order_status(txn, *params[1:])
            elif kind == "delivery":
                self._delivery(txn, *params[1:])
            else:
                self._stock_level(txn, *params[1:])
        except _Aborted as exc:
            self.engine.abort(txn)
            return False, exc.reason
        except OverlapAbort:
            self.engine.abort(txn)
            return False, "overlap"
        status = self.engine.commit(txn)
        if status is TxnStatus.ABORTED:
            return False, txn.abort_reason or "conflict"
        return True, ""

    # -- the five transactions ----------------------------------------------

    def _new_order(self, txn, w: int, d: int, c: int, lines) -> None:
        district, d_schema = self._read_k(txn, "district", (w, d))
        if district is None:
            raise _Aborted("missing_row")
        o_id = col(d_schema, district, "d_next_o_id")
        self._write_k(txn, "district", (w, d), d_next_o_id=o_id + 1)
        self._read_k(txn, "customer", (w, d, c))
        total = 0.0
        ol_rows = []
        for number, (item, supply, qty) in enumerate(lines, start=1):
            item_row, i_schema = self._read_k(txn, "item", (item,))
            if item_row is None:
                raise _Aborted("missing_row")
            price = col(i_schema, item_row, "i_price")
            stock_row, s_schema = self._read_k(txn, "stock", (supply, item))
            if stock_row is None:
                raise _Aborted("missing_row")
            quantity = col(s_schema, stock_row, "s_quantity")
            new_q = quantity - qty if quantity - qty >= 10 else quantity - qty + 91
            self._write_k(txn, "stock", (supply, item),
                          s_quantity=new_q,
                          s_ytd=col(s_schema, stock_row, "s_ytd") + qty,
                          s_order_cnt=col(s_schema, stock_row, "s_order_cnt") + 1)
            amount = round(qty * price, 2)
            total += amount
            ol_rows.append(dict(ol_w_id=w, ol_d_id=d, ol_o_id=o_id,
                                ol_number=number, ol_i_id=item,
                                ol_supply_w_id=supply, ol_quantity=qty,
                                ol_amount=amount))
        self._insert(txn, "oorder", o_w_id=w, o_d_id=d, o_id=o_id, o_c_id=c,
                     o_carrier_id=0, o_ol_cnt=len(lines), o_entry_d=0,
                     o_ol_amount_sum=round(total, 2))
        self._insert(txn, "new_order", no_w_id=w, no_d_id=d, no_o_id=o_id)
        for row in ol_rows:
            self._insert(txn, "order_line", **row)

    def _payment(self, txn, w: int, d: int, c: int, amount: float) -> None:
        wrow, w_schema = self._read_k(txn, "warehouse", (w,))
        if wrow is None:
            raise _Aborted("missing_row")
        self._write_k(txn, "warehouse", (w,),
                      w_ytd=col(w_schema, wrow, "w_ytd") + amount)
        drow, d_schema = self._read_k(txn, "district", (w, d))
        if drow is None:
            raise _Aborted("missing_row")
        self._write_k(txn, "district", (w, d),
                      d_ytd=col(d_schema, drow, "d_ytd") + amount)
        crow, c_schema = self._read_k(txn, "customer", (w, d, c))
        if crow is None:
            raise _Aborted("missing_row")
        self._write_k(txn, "customer", (w, d, c),
                      c_balance=col(c_schema, crow, "c_balance") - amount,
                      c_ytd_payment=col(c_schema, crow, "c_ytd_payment") + amount,
                      c_payment_cnt=col(c_schema, crow, "c_payment_cnt") + 1)
        self._insert(txn, "history", h_w_id=w, h_d_id=d, h_c_id=c,
                     h_amount=amount)

    def _order_status(self, txn, w: int, d: int, c: int) -> None:
        self._read_k(txn, "customer", (w, d, c))
        district, d_schema = self._read_k(txn, "district", (w, d))
        if district is None:
            raise _Aborted("missing_row")
        next_o = col(d_schema, district, "d_next_o_id")
        for o in range(next_o - 1, max(next_o - 6, 0), -1):
            order, o_schema = self._read_k(txn, "oorder", (w, d, o))
            if order is None:
                continue
            cnt = col(o_schema, order, "o_ol_cnt")
            for n in range(1, cnt + 1):
                self._read_order_line(txn, (w, d, o, n))
            return

    def _delivery(self, txn, w: int, carrier: int) -> None:
        for d in range(1, DISTRICTS_PER_WH + 1):
            district, d_schema = self._read_k(txn, "district", (w, d))
            if district is None:
                raise _Aborted("missing_row")
            no_id = col(d_schema, district, "d_next_deliv_o")
            if no_id >= col(d_schema, district, "d_next_o_id"):
                continue
            no_row, _ = self._read_k(txn, "new_order", (w, d, no_id))
            order, o_schema = self._read_k(txn, "oorder", (w, d, no_id))
            self._write_k(txn, "district", (w, d), d_next_deliv_o=no_id + 1)
            if no_row is not None:
                table = self.db.tables["new_order"]
                rid = table.indexes["primary"].lookup(encode_key((w, d, no_id)))
                if rid is not None and not self.engine.delete(txn, table, rid):
                    raise _Aborted()
            if order is None:
                continue
            cnt = col(o_schema, order, "o_ol_cnt")
            total = 0.0
            for n in range(1, cnt + 1):
                line, ol_schema = self._read_order_line(txn, (w, d, no_id, n))
                if line is not None:
                    total += col(ol_schema, line, "ol_amount")
            self._write_k(txn, "oorder", (w, d, no_id), o_carrier_id=carrier)
            c_id = col(o_schema, order, "o_c_id")
            crow, c_schema = self._read_k(txn, "customer", (w, d, c_id))
            if crow is not None:
                self._write_k(txn, "customer", (w, d, c_id),
                              c_balance=col(c_schema, crow, "c_balance") + total)

    def _stock_level(self, txn, w: int, d: int, threshold: int) -> None:
        district, d_schema = self._read_k(txn, "district", (w, d))
        if district is None:
            raise _Aborted("missing_row")
        next_o = col(d_schema, district, "d_next_o_id")
        lo = max(1, next_o - 20)
        items: set[int] = set()
        ol_table = self.db.tables["order_line"]
        ol_schema = self.db.schema(txn, "order_line")
        if "primary" in ol_table.indexes:
            for o in range(lo, next_o):
                order, o_schema = self._read_k(txn, "oorder", (w, d, o))
                if order is None:
                    continue
                for n in range(1, col(o_schema, order, "o_ol_cnt") + 1):
                    line, schema = self._read_order_line(txn, (w, d, o, n))
                    if line is not None:
                        items.add(col(schema, line, "ol_i_id"))
        else:
            # no index yet: one full scan collecting the matching lines
            i_w = ol_schema.col_index("ol_w_id")
            i_d = ol_schema.col_index("ol_d_id")
            i_o = ol_schema.col_index("ol_o_id")
            i_item = ol_schema.col_index("ol_i_id")
            for rid in range(ol_table.next_rid):
                line = self.engine.read(txn, ol_table, rid)
                if line is None:
                    continue
                if line[i_w] == w and line[i_d] == d and lo <= line[i_o] < next_o:
                    items.add(line[i_item])
        for item in sorted(items):
            self._read_k(txn, "stock", (w, item))

    def _read_order_line(self, txn, key: tuple):
        """Point access to order_line through the primary index when it
        exists, else a keyed probe via full scan (slow by design)."""
        ol_table = self.db.tables["order_line"]
        schema = self.db.schema(txn, "order_line")
        if "primary" in ol_table.indexes:
            rid = ol_table.indexes["primary"].lookup(encode_key(key))
            if rid is None:
                return None, schema
            return self.engine.read(txn, ol_table, rid), schema
        i_cols = tuple(schema.col_index(c)
                       for c in ("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"))
        for rid in range(ol_table.next_rid):
            line = self.engine.read(txn, ol_table, rid)
            if line is not None and tuple(line[i] for i in i_cols) == key:
                return line, schema
        return None, schema


def tpccd_ddl_spec(cfg: WorkloadConfig) -> DdlSpec:
    op = cfg.ddl_op
    if op == "add_column":
        return DdlSpec(kind=DdlOp.ADD_COLUMN, table="order_line",
                       column=ColumnDef("ol_tax", _F64, default=0.1))
    if op == "add_constraint":
        return DdlSpec(kind=DdlOp.ADD_CONSTRAINT, table="order_line",
                       constraints=(
                           ConstraintDef(ConstraintKind.COLUMN_VS_CONST,
                                         column="ol_number", op=">=", const=1),
                           ConstraintDef(ConstraintKind.CROSS_TABLE_LOOKUP,
                                         column="ol_number", op="<=",
                                         foreign_table="oorder",
                                         local_key_cols=("ol_w_id", "ol_d_id",
                                                         "ol_o_id"),
                                         foreign_col="o_ol_cnt"),
                       ))
    if op == "add_column_with_constraint":
        return DdlSpec(kind=DdlOp.ADD_COLUMN_WITH_CONSTRAINT, table="order_line",
                       column=ColumnDef("ol_tax", _F64, default=0.1),
                       constraints=(
                           ConstraintDef(ConstraintKind.COLUMN_VS_CONST,
                                         column="ol_amount", op=">=", const=0),
                       ))
    if op == "split_table":
        return DdlSpec(kind=DdlOp.SPLIT_TABLE, table="customer",
                       out_split=(
                           ("customer_private",
                            ("c_w_id", "c_d_id", "c_id", "c_balance",
                             "c_ytd_payment", "c_payment_cnt", "c_credit")),
                           ("customer_public",
                            ("c_w_id", "c_d_id", "c_id", "c_state", "c_city",
                             "c_street")),
                       ))
    if op == "preaggregate":
        return DdlSpec(kind=DdlOp.PREAGGREGATE, table="oorder",
                       column=ColumnDef("o_ol_amount_sum", _F64, default=0.0),
                       source_table="order_line",
                       local_keys=("o_w_id", "o_d_id", "o_id"),
                       agg_source_col="ol_amount")
    if op == "join_table":
        return DdlSpec(kind=DdlOp.JOIN_TABLE, table="order_line",
                       out_table="stock_order_line", source_table="stock",
                       local_keys=("ol_supply_w_id", "ol_i_id"),
                       join_cols=("s_quantity",))
    if op == "create_index":
        return DdlSpec(kind=DdlOp.CREATE_INDEX, table="order_line",
                       index_cols=("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"))
    raise ValueError(f"unknown tpccd ddl_op {op!r}")


def run_tpccd(cfg: WorkloadConfig, *, engine: Optional[Engine] = None,
              trace=None) -> ThroughputSeries:
    own_engine = engine is None
    if engine is None:
        engine = Engine(trace=trace, locking_dml=(cfg.policy == "blocking"))
    db = TpccDb(engine, cfg)
    db.load()
    workload = TpccWorkload(db)

    ddl_launcher = None
    if cfg.ddl_op:
        spec = tpccd_ddl_spec(cfg)
        policy = Policy(cfg.policy)

        def ddl_launcher() -> DdlResult:
            return execute_ddl(engine, spec, policy,
                               scan_workers=cfg.scan_threads,
                               cdc_workers=cfg.cdc_threads)

    series = run_workload(engine, cfg, workload.make_params,
                          workload.exec_txn, ddl_launcher)
    series.extra["db"] = db
    if own_engine and not series.extra.get("keep_engine"):
        series.extra["final"] = snapshot_logical(db)
        engine.close()
    return series


def snapshot_logical(db: TpccDb) -> dict[str, dict[int, tuple]]:
    out = {}
    for name, handle in db.tables.items():
        out[name] = db.engine.materialize(handle)
    return out


# -- post-run validation helpers (used by tests and the CLI) -----------------


def join_back_matches(db: TpccDb) -> bool:
    """After a customer split: private |><| public on the shared key must
    reconstruct the source rows."""
    eng = db.engine
    try:
        private = eng.catalog.handle_by_name("customer_private")
        public = eng.catalog.handle_by_name("customer_public")
    except Exception:
        return False
    src = eng.materialize(db.tables["customer"])
    p_rows = eng.materialize(private)
    q_rows = eng.materialize(public)
    if set(src) != set(p_rows) or set(src) != set(q_rows):
        return False
    src_schema = eng.catalog.latest_committed_schema(db.tables["customer"].table_id)
    p_schema = eng.catalog.latest_committed_schema(private.table_id)
    q_schema = eng.catalog.latest_committed_schema(public.table_id)
    for rid, row in src.items():
        joined: dict[str, Any] = {}
        for schema, part in ((p_schema, p_rows[rid]), (q_schema, q_rows[rid])):
            for i, c in enumerate(schema.columns):
                joined[c.name] = part[i]
        rebuilt = tuple(joined[c.name] for c in src_schema.columns)
        if rebuilt != row:
            return False
    return True


def preaggregate_matches(db: TpccDb) -> bool:
    """oorder's aggregate column must equal an offline recomputation of
    the per-order order_line amount sums."""
    eng = db.engine
    oorder = db.tables["oorder"]
    schema = eng.catalog.latest_committed_schema(oorder.table_id)
    if "o_ol_amount_sum" not in [c.name for c in schema.columns]:
        return False
    ol = eng.materialize(db.tables["order_line"])
    ol_schema = eng.catalog.latest_committed_schema(db.tables["order_line"].table_id)
    iw, idd, io, iam = (ol_schema.col_index(c) for c in
                        ("ol_w_id", "ol_d_id", "ol_o_id", "ol_amount"))
    sums: dict[tuple, float] = {}
    for row in ol.values():
        key = (row[iw], row[idd], row[io])
        sums[key] = sums.get(key, 0.0) + row[iam]
    rows = eng.materialize(oorder)
    jw, jd, jo, js = (schema.col_index(c) for c in
                      ("o_w_id", "o_d_id", "o_id", "o_ol_amount_sum"))
    for row in rows.values():
        expect = sums.get((row[jw], row[jd], row[jo]), 0.0)
        if abs(row[js] - expect) > 1e-6:
            return False
    return True


def index_matches_full_scan(db: TpccDb, samples: int = 100,
                            seed: int = 1) -> bool:
    """Point lookups through the built index must agree with full-scan
    answers for sampled keys."""
    eng = db.engine
    ol = db.tables["order_line"]
    index = ol.indexes.get("primary")
    if index is None:
        return False
    schema = eng.catalog.latest_committed_schema(ol.table_id)
    key_cols = tuple(schema.col_index(c) for c in
                     ("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"))
    rows = eng.materialize(ol)
    by_key = {tuple(r[i] for i in key_cols): (rid, r)
              for rid, r in rows.items()}
    rng = random.Random(seed)
    keys = list(by_key)
    if not keys:
        return False
    for _ in range(samples):
        key = rng.choice(keys)
        rid = index.lookup(encode_key(key))
        if rid != by_key[key][0]:
            return False
    return True
