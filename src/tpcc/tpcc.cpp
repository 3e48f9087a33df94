#include "tpcc/tpcc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/costs.h"
#include "common/platform.h"

namespace sprwl::tpcc {

// --- internal table shapes ----------------------------------------------------

struct Database::District {
  explicit District(const Scale& s)
      : customers(static_cast<std::size_t>(s.customers_per_district)),
        orders(static_cast<std::size_t>(s.order_ring)),
        order_lines(static_cast<std::size_t>(s.order_ring) * kMaxOrderLines),
        no_queue(static_cast<std::size_t>(s.order_ring)) {}

  DistrictRow row;
  aligned_vector<CustomerRow> customers;
  aligned_vector<OrderRow> orders;           // ring keyed by o_id % ring
  aligned_vector<OrderLineRow> order_lines;  // ring slot * kMaxOrderLines + l
  aligned_vector<htm::Shared<std::uint32_t>> no_queue;  // undelivered o_ids
  htm::Shared<std::uint32_t> no_head;  // consumer cursor (monotonic)
  htm::Shared<std::uint32_t> no_tail;  // producer cursor (monotonic)
};

struct alignas(kCacheLineSize) Database::Warehouse {
  explicit Warehouse(const Scale& s) : stock(static_cast<std::size_t>(s.items)) {
    districts.reserve(static_cast<std::size_t>(s.districts_per_warehouse));
    for (int d = 0; d < s.districts_per_warehouse; ++d) {
      districts.push_back(std::make_unique<District>(s));
    }
  }

  WarehouseRow row;
  std::vector<std::unique_ptr<District>> districts;
  aligned_vector<StockRow> stock;
};

namespace {

constexpr std::size_t kDistInfoLen = 24;

std::int64_t permille(std::int64_t cents, std::int64_t rate) noexcept {
  return cents * rate / 1000;
}

}  // namespace

// --- construction & population -------------------------------------------------

Database::Database(Scale scale)
    : scale_(scale),
      nurand_([&] {
        std::uint64_t s = scale.seed ^ 0xC0FFEE;
        const std::uint64_t c_last = splitmix64(s) % 256;
        const std::uint64_t c_id = splitmix64(s) % 1024;
        const std::uint64_t i_id = splitmix64(s) % 8192;
        return NuRand(c_last, c_id, i_id);
      }()),
      history_next_(static_cast<std::size_t>(scale.max_threads)),
      history_(static_cast<std::size_t>(scale.max_threads) *
               static_cast<std::size_t>(scale.history_per_thread)) {
  if (scale_.warehouses < 1 || scale_.districts_per_warehouse < 1 ||
      scale_.customers_per_district < 1 || scale_.items < 1) {
    throw std::invalid_argument("tpcc::Scale cardinalities must be >= 1");
  }
  if ((scale_.order_ring & (scale_.order_ring - 1)) != 0) {
    throw std::invalid_argument("tpcc::Scale::order_ring must be a power of two");
  }
  items_.resize(static_cast<std::size_t>(scale_.items));
  warehouses_.reserve(static_cast<std::size_t>(scale_.warehouses));
  for (int w = 0; w < scale_.warehouses; ++w) {
    warehouses_.push_back(std::make_unique<Warehouse>(scale_));
  }
  for (int t = 0; t < scale_.max_threads; ++t) {
    history_next_[static_cast<std::size_t>(t)]->raw_store(
        static_cast<std::uint32_t>(t) *
        static_cast<std::uint32_t>(scale_.history_per_thread));
  }
}

Database::~Database() = default;

void Database::populate() {
  Rng rng(scale_.seed);

  // Items (clause 4.3.3.1): 10% of I_DATA contain "ORIGINAL".
  for (int i = 0; i < scale_.items; ++i) {
    ItemRow& it = items_[static_cast<std::size_t>(i)];
    it.im_id = static_cast<std::uint32_t>(rng.next_in(1, 10000));
    it.price_cents = static_cast<std::int64_t>(rng.next_in(100, 10000));
    it.name = random_astring(rng, 14, 24);
    it.data = random_astring(rng, 26, 50);
    if (rng.next_bool(0.1)) it.data.replace(it.data.size() / 2, 8, "ORIGINAL");
  }

  const auto d_ytd_init =
      static_cast<std::int64_t>(scale_.customers_per_district) * 1000;  // $10 each

  for (int w = 0; w < scale_.warehouses; ++w) {
    Warehouse& wh = *warehouses_[static_cast<std::size_t>(w)];
    wh.row.tax_permille = static_cast<std::int64_t>(rng.next_in(0, 200));
    wh.row.name = random_astring(rng, 6, 10);
    wh.row.ytd_cents.raw_store(d_ytd_init * scale_.districts_per_warehouse);

    // Stock (clause 4.3.3.1).
    for (int i = 0; i < scale_.items; ++i) {
      StockRow& s = wh.stock[static_cast<std::size_t>(i)];
      s.quantity.raw_store(static_cast<std::uint32_t>(rng.next_in(10, 100)));
      s.ytd.raw_store(0);
      s.order_cnt.raw_store(0);
      s.remote_cnt.raw_store(0);
      for (auto& dist : s.dist) {
        const std::string ds = random_astring(rng, kDistInfoLen, kDistInfoLen);
        std::copy(ds.begin(), ds.end(), dist.begin());
      }
      s.data = random_astring(rng, 26, 50);
      if (rng.next_bool(0.1)) s.data.replace(s.data.size() / 2, 8, "ORIGINAL");
    }

    for (int d = 0; d < scale_.districts_per_warehouse; ++d) {
      District& dist = *wh.districts[static_cast<std::size_t>(d)];
      dist.row.tax_permille = static_cast<std::int64_t>(rng.next_in(0, 200));
      dist.row.name = random_astring(rng, 6, 10);
      dist.row.ytd_cents.raw_store(d_ytd_init);

      // Customers (clause 4.3.3.1): 10% bad credit; names from the
      // syllable table.
      const auto max_code = static_cast<std::uint64_t>(
          std::min(scale_.customers_per_district, 1000) - 1);
      for (int c = 0; c < scale_.customers_per_district; ++c) {
        CustomerRow& cu = dist.customers[static_cast<std::size_t>(c)];
        cu.balance_cents.raw_store(-1000);
        cu.ytd_payment_cents.raw_store(1000);
        cu.payment_cnt.raw_store(1);
        cu.delivery_cnt.raw_store(0);
        cu.last_order_slot.raw_store(0);
        cu.data.raw_assign(random_astring(rng, 100, 240));
        cu.last_code =
            static_cast<std::uint16_t>(nurand_.last_name_code(rng, max_code));
        cu.good_credit = !rng.next_bool(0.1);
        cu.discount_permille = static_cast<std::int64_t>(rng.next_in(0, 500));
        cu.credit_lim_cents = 5000000;
        cu.last = last_name(cu.last_code);
        cu.first = random_astring(rng, 8, 16);
      }

      // Orders: one per customer in a random permutation (clause 4.3.3.1);
      // the most recent 30% are undelivered and sit in the new-order
      // queue. Only the last `order_ring` orders physically persist.
      std::vector<std::uint32_t> perm(
          static_cast<std::size_t>(scale_.customers_per_district));
      for (std::size_t i = 0; i < perm.size(); ++i) {
        perm[i] = static_cast<std::uint32_t>(i + 1);
      }
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.next_below(i)]);
      }
      const int total_orders = scale_.customers_per_district;
      const int first_undelivered = total_orders - total_orders * 3 / 10 + 1;
      const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
      for (int o = 1; o <= total_orders; ++o) {
        const auto o_id = static_cast<std::uint32_t>(o);
        if (o_id + ring <= static_cast<std::uint32_t>(total_orders)) {
          continue;  // would be overwritten anyway; skip for speed
        }
        const std::uint32_t slot = o_id % ring;
        OrderRow& ord = dist.orders[slot];
        const std::uint32_t c_id = perm[static_cast<std::size_t>(o - 1)];
        const bool delivered = o < first_undelivered;
        const auto cnt =
            static_cast<std::uint32_t>(rng.next_in(5, kMaxOrderLines));
        ord.id.raw_store(o_id);
        ord.c_id.raw_store(c_id);
        ord.carrier_id.raw_store(
            delivered ? static_cast<std::uint32_t>(rng.next_in(1, 10)) : 0);
        ord.ol_cnt.raw_store(cnt);
        ord.entry_d.raw_store(static_cast<std::uint64_t>(o));
        ord.all_local.raw_store(1);
        for (std::uint32_t l = 0; l < cnt; ++l) {
          OrderLineRow& ol = dist.order_lines[slot * kMaxOrderLines + l];
          ol.i_id.raw_store(static_cast<std::uint32_t>(
              rng.next_in(1, static_cast<std::uint64_t>(scale_.items))));
          ol.supply_w.raw_store(static_cast<std::uint32_t>(w + 1));
          ol.quantity.raw_store(5);
          // Clause 4.3.3.1: delivered lines have amount 0, undelivered a
          // random amount — this is what makes the balance invariant hold.
          ol.amount_cents.raw_store(
              delivered ? 0 : static_cast<std::int64_t>(rng.next_in(1, 999999)));
          ol.delivery_d.raw_store(delivered ? static_cast<std::uint64_t>(o) : 0);
          ol.dist_info.raw_assign(random_astring(rng, kDistInfoLen, kDistInfoLen));
        }
        dist.customers[c_id - 1].last_order_slot.raw_store(o_id + 1);
      }
      dist.row.next_o_id.raw_store(static_cast<std::uint32_t>(total_orders + 1));
      // New-order queue: the undelivered tail, in order.
      std::uint32_t tail = 0;
      for (int o = first_undelivered; o <= total_orders; ++o) {
        const auto o_id = static_cast<std::uint32_t>(o);
        if (o_id + ring <= static_cast<std::uint32_t>(total_orders)) continue;
        dist.no_queue[tail % ring].raw_store(o_id);
        ++tail;
      }
      dist.no_head.raw_store(0);
      dist.no_tail.raw_store(tail);
    }
  }
}

// --- small accessors -----------------------------------------------------------

Database::District& Database::district(int w, int d) noexcept {
  return *warehouses_[static_cast<std::size_t>(w - 1)]
              ->districts[static_cast<std::size_t>(d - 1)];
}
const Database::District& Database::district(int w, int d) const noexcept {
  return *warehouses_[static_cast<std::size_t>(w - 1)]
              ->districts[static_cast<std::size_t>(d - 1)];
}
CustomerRow& Database::customer(int w, int d, int c) noexcept {
  return district(w, d).customers[static_cast<std::size_t>(c - 1)];
}
const CustomerRow& Database::customer(int w, int d, int c) const noexcept {
  return district(w, d).customers[static_cast<std::size_t>(c - 1)];
}
StockRow& Database::stock(int w, int i) noexcept {
  return warehouses_[static_cast<std::size_t>(w - 1)]
      ->stock[static_cast<std::size_t>(i - 1)];
}
const StockRow& Database::stock(int w, int i) const noexcept {
  return warehouses_[static_cast<std::size_t>(w - 1)]
      ->stock[static_cast<std::size_t>(i - 1)];
}

int Database::select_customer_by_last_name(int w, int d,
                                           std::uint16_t code) const {
  // The spec walks a (C_LAST, C_FIRST) index; the name fields are immutable
  // after population, so this runs on plain memory. Model the index probe
  // as a handful of cache misses.
  platform::advance(g_costs.load * 8);
  const District& dist = district(w, d);
  int best[64];
  int n = 0;
  for (int c = 1; c <= scale_.customers_per_district && n < 64; ++c) {
    if (dist.customers[static_cast<std::size_t>(c - 1)].last_code == code) {
      best[n++] = c;
    }
  }
  if (n == 0) return -1;
  std::sort(best, best + n, [&](int a, int b) {
    return dist.customers[static_cast<std::size_t>(a - 1)].first <
           dist.customers[static_cast<std::size_t>(b - 1)].first;
  });
  return best[(n + 1) / 2 - 1];  // ceil(n/2)-th, 1-based
}

HistoryRow& Database::next_history_row() {
  const int tid = platform::thread_id();
  const std::size_t t =
      tid >= 0 ? static_cast<std::size_t>(tid) % history_next_.size() : 0;
  auto& cursor = *history_next_[t];
  const std::uint32_t at = cursor.load();
  const auto base =
      static_cast<std::uint32_t>(t * static_cast<std::size_t>(scale_.history_per_thread));
  const auto span = static_cast<std::uint32_t>(scale_.history_per_thread);
  const std::uint32_t next = (at + 1 - base) % span + base;  // per-thread ring
  cursor.store(next);
  return history_[at];
}

// --- transactions ----------------------------------------------------------------

NewOrderResult Database::new_order(const NewOrderInput& in) {
  NewOrderResult r;
  Warehouse& wh = *warehouses_[static_cast<std::size_t>(in.w_id - 1)];
  District& d = district(in.w_id, in.d_id);
  CustomerRow& cu = customer(in.w_id, in.d_id, in.c_id);

  if (in.rollback) {
    // Clause 2.4.1.4: the last item is unused -> the whole transaction
    // rolls back after having read the pricing rows.
    (void)d.row.next_o_id.load();
    for (int l = 0; l + 1 < in.ol_cnt; ++l) {
      item_index_.probe(
          static_cast<std::uint64_t>(in.lines[static_cast<std::size_t>(l)].i_id));
    }
    r.committed = false;
    return r;
  }
  customer_index_.probe(district_key(in.w_id, in.d_id, static_cast<std::uint64_t>(in.c_id)));

  const std::uint32_t o_id = d.row.next_o_id.load();
  d.row.next_o_id.store(o_id + 1);
  const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
  const std::uint32_t slot = o_id % ring;

  bool all_local = true;
  for (int l = 0; l < in.ol_cnt; ++l) {
    all_local =
        all_local && in.lines[static_cast<std::size_t>(l)].supply_w_id == in.w_id;
  }

  OrderRow& o = d.orders[slot];
  o.id.store(o_id);
  o.c_id.store(static_cast<std::uint32_t>(in.c_id));
  o.carrier_id.store(0);
  o.ol_cnt.store(static_cast<std::uint32_t>(in.ol_cnt));
  o.entry_d.store(in.entry_d);
  o.all_local.store(all_local ? 1 : 0);

  order_index_.update(district_key(in.w_id, in.d_id, o_id));

  std::int64_t total = 0;
  for (int l = 0; l < in.ol_cnt; ++l) {
    const auto& line = in.lines[static_cast<std::size_t>(l)];
    item_index_.probe(static_cast<std::uint64_t>(line.i_id));
    stock_index_.probe((static_cast<std::uint64_t>(line.supply_w_id) << 32) |
                       static_cast<std::uint64_t>(line.i_id));
    const ItemRow& item = items_[static_cast<std::size_t>(line.i_id - 1)];
    StockRow& s = stock(line.supply_w_id, line.i_id);
    const std::uint32_t q = s.quantity.load();
    const auto want = static_cast<std::uint32_t>(line.quantity);
    s.quantity.store(q >= want + 10 ? q - want : q - want + 91);
    s.ytd.store(s.ytd.load() + line.quantity);
    s.order_cnt.store(s.order_cnt.load() + 1);
    if (line.supply_w_id != in.w_id) s.remote_cnt.store(s.remote_cnt.load() + 1);

    const std::int64_t amount = item.price_cents * line.quantity;
    total += amount;

    OrderLineRow& ol =
        d.order_lines[slot * kMaxOrderLines + static_cast<std::uint32_t>(l)];
    ol.i_id.store(static_cast<std::uint32_t>(line.i_id));
    ol.supply_w.store(static_cast<std::uint32_t>(line.supply_w_id));
    ol.quantity.store(want);
    ol.amount_cents.store(amount);
    ol.delivery_d.store(0);
    const auto& dinfo = s.dist[static_cast<std::size_t>(in.d_id - 1)];
    ol.dist_info.assign(std::string_view(dinfo.data(), dinfo.size()));
    orderline_index_.update(
        district_key(in.w_id, in.d_id, o_id * 16 + static_cast<std::uint64_t>(l)));
  }

  // Enqueue as undelivered; a full queue (deliveries lagging far behind)
  // drops the enqueue — the order itself still exists.
  const std::uint32_t tail = d.no_tail.load();
  if (tail - d.no_head.load() < ring) {
    d.no_queue[tail % ring].store(o_id);
    d.no_tail.store(tail + 1);
  }
  cu.last_order_slot.store(o_id + 1);

  const std::int64_t discounted = total - permille(total, cu.discount_permille);
  r.total_cents = discounted + permille(discounted, wh.row.tax_permille) +
                  permille(discounted, d.row.tax_permille);
  r.o_id = o_id;
  r.committed = true;
  return r;
}

PaymentResult Database::payment(const PaymentInput& in) {
  PaymentResult r;
  Warehouse& wh = *warehouses_[static_cast<std::size_t>(in.w_id - 1)];
  District& d = district(in.w_id, in.d_id);
  wh.row.ytd_cents.store(wh.row.ytd_cents.load() + in.amount_cents);
  d.row.ytd_cents.store(d.row.ytd_cents.load() + in.amount_cents);

  int c_id = in.c_id;
  if (in.by_last_name) {
    const int found =
        select_customer_by_last_name(in.c_w_id, in.c_d_id, in.last_code);
    c_id = found > 0 ? found : 1;
  }
  customer_index_.probe(
      district_key(in.c_w_id, in.c_d_id, static_cast<std::uint64_t>(c_id)));
  CustomerRow& cu = customer(in.c_w_id, in.c_d_id, c_id);
  cu.balance_cents.store(cu.balance_cents.load() - in.amount_cents);
  cu.ytd_payment_cents.store(cu.ytd_payment_cents.load() + in.amount_cents);
  cu.payment_cnt.store(cu.payment_cnt.load() + 1);

  if (!cu.good_credit) {
    // Clause 2.5.2.2: bad-credit customers get the payment prepended to
    // C_DATA (truncated to the column size).
    std::string data = std::to_string(c_id) + " " + std::to_string(in.c_d_id) +
                       " " + std::to_string(in.c_w_id) + " " +
                       std::to_string(in.d_id) + " " + std::to_string(in.w_id) +
                       " " + std::to_string(in.amount_cents) + "|";
    data += cu.data.str();
    if (data.size() > cu.data.capacity()) data.resize(cu.data.capacity());
    cu.data.assign(data);
  }

  HistoryRow& h = next_history_row();
  h.c_id.store(static_cast<std::uint32_t>(c_id));
  h.c_d_id.store(static_cast<std::uint32_t>(in.c_d_id));
  h.c_w_id.store(static_cast<std::uint32_t>(in.c_w_id));
  h.d_id.store(static_cast<std::uint32_t>(in.d_id));
  h.w_id.store(static_cast<std::uint32_t>(in.w_id));
  h.amount_cents.store(in.amount_cents);

  r.c_id = c_id;
  r.balance_cents = cu.balance_cents.load();
  return r;
}

OrderStatusResult Database::order_status(const OrderStatusInput& in) {
  OrderStatusResult r;
  int c_id = in.c_id;
  if (in.by_last_name) {
    const int found = select_customer_by_last_name(in.w_id, in.d_id, in.last_code);
    c_id = found > 0 ? found : 1;
  }
  r.c_id = c_id;
  customer_index_.probe(
      district_key(in.w_id, in.d_id, static_cast<std::uint64_t>(c_id)));
  const District& d = district(in.w_id, in.d_id);
  const CustomerRow& cu = customer(in.w_id, in.d_id, c_id);
  r.balance_cents = cu.balance_cents.load();

  const std::uint32_t o_ref = cu.last_order_slot.load();
  if (o_ref == 0) return r;
  const std::uint32_t o_id = o_ref - 1;
  order_index_.probe(district_key(in.w_id, in.d_id, o_id));
  orderline_index_.probe(district_key(in.w_id, in.d_id, o_id * 16));
  const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
  const OrderRow& o = d.orders[o_id % ring];
  if (o.id.load() != o_id) return r;  // order aged out of the ring
  r.o_id = o_id;
  r.carrier_id = o.carrier_id.load();
  const std::uint32_t cnt = o.ol_cnt.load();
  for (std::uint32_t l = 0; l < cnt && l < kMaxOrderLines; ++l) {
    const OrderLineRow& ol = d.order_lines[(o_id % ring) * kMaxOrderLines + l];
    (void)ol.i_id.load();
    (void)ol.supply_w.load();
    (void)ol.quantity.load();
    (void)ol.amount_cents.load();
    (void)ol.delivery_d.load();
    ++r.lines;
  }
  return r;
}

DeliveryResult Database::delivery(const DeliveryInput& in) {
  DeliveryResult r;
  const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
  for (int d_id = 1; d_id <= scale_.districts_per_warehouse; ++d_id) {
    District& d = district(in.w_id, d_id);
    std::uint32_t head = d.no_head.load();
    const std::uint32_t tail = d.no_tail.load();
    bool delivered = false;
    while (head != tail && !delivered) {
      const std::uint32_t o_id = d.no_queue[head % ring].load();
      ++head;
      OrderRow& o = d.orders[o_id % ring];
      if (o.id.load() != o_id || o.carrier_id.load() != 0) {
        continue;  // aged out of the ring or already delivered
      }
      order_index_.probe(district_key(in.w_id, d_id, o_id));
      orderline_index_.probe(district_key(in.w_id, d_id, o_id * 16));
      o.carrier_id.store(static_cast<std::uint32_t>(in.carrier_id));
      const std::uint32_t cnt = o.ol_cnt.load();
      std::int64_t sum = 0;
      for (std::uint32_t l = 0; l < cnt && l < kMaxOrderLines; ++l) {
        OrderLineRow& ol = d.order_lines[(o_id % ring) * kMaxOrderLines + l];
        ol.delivery_d.store(in.delivery_d);
        sum += ol.amount_cents.load();
      }
      const std::uint32_t c_id = o.c_id.load();
      customer_index_.probe(district_key(in.w_id, d_id, c_id));
      CustomerRow& cu = customer(in.w_id, d_id, static_cast<int>(c_id));
      cu.balance_cents.store(cu.balance_cents.load() + sum);
      cu.delivery_cnt.store(cu.delivery_cnt.load() + 1);
      delivered = true;
      ++r.delivered;
    }
    d.no_head.store(head);
  }
  return r;
}

StockLevelResult Database::stock_level(const StockLevelInput& in) {
  StockLevelResult r;
  const District& d = district(in.w_id, in.d_id);
  const std::uint32_t next = d.row.next_o_id.load();
  const std::uint32_t lo = next > 21 ? next - 21 : 1;  // the last 20 orders
  const auto ring = static_cast<std::uint32_t>(scale_.order_ring);

  // Distinct-item filter: local open-addressing set on the stack (the
  // spec's DISTINCT is a private execution detail of the query).
  constexpr std::size_t kSetSize = 1024;  // > 20 orders * 15 lines
  std::uint32_t seen[kSetSize] = {0};

  for (std::uint32_t o_id = lo; o_id < next; ++o_id) {
    order_index_.probe(district_key(in.w_id, in.d_id, o_id));
    const OrderRow& o = d.orders[o_id % ring];
    if (o.id.load() != o_id) continue;
    orderline_index_.probe(district_key(in.w_id, in.d_id, o_id * 16));
    const std::uint32_t cnt = o.ol_cnt.load();
    for (std::uint32_t l = 0; l < cnt && l < kMaxOrderLines; ++l) {
      const OrderLineRow& ol = d.order_lines[(o_id % ring) * kMaxOrderLines + l];
      const std::uint32_t i_id = ol.i_id.load();
      ++r.scanned_lines;
      if (i_id == 0) continue;
      std::size_t h = (i_id * 0x9E3779B1u) % kSetSize;
      bool fresh = true;
      while (seen[h] != 0) {
        if (seen[h] == i_id) {
          fresh = false;
          break;
        }
        h = (h + 1) % kSetSize;
      }
      if (!fresh) continue;
      seen[h] = i_id;
      stock_index_.probe((static_cast<std::uint64_t>(in.w_id) << 32) | i_id);
      if (stock(in.w_id, static_cast<int>(i_id)).quantity.load() <
          static_cast<std::uint32_t>(in.threshold)) {
        ++r.low_stock;
      }
    }
  }
  return r;
}

// --- input generators ------------------------------------------------------------

NewOrderInput Database::make_new_order_input(Rng& rng, int home_w) const {
  NewOrderInput in{};
  in.w_id = home_w;
  in.d_id = static_cast<int>(
      rng.next_in(1, static_cast<std::uint64_t>(scale_.districts_per_warehouse)));
  in.c_id = static_cast<int>(nurand_.customer_id(
      rng, static_cast<std::uint64_t>(scale_.customers_per_district)));
  in.ol_cnt = static_cast<int>(rng.next_in(5, kMaxOrderLines));
  in.rollback = rng.next_bool(0.01);
  in.entry_d = platform::now() | 1;
  for (int l = 0; l < in.ol_cnt; ++l) {
    auto& line = in.lines[static_cast<std::size_t>(l)];
    line.i_id = static_cast<int>(
        nurand_.item_id(rng, static_cast<std::uint64_t>(scale_.items)));
    line.quantity = static_cast<int>(rng.next_in(1, 10));
    line.supply_w_id = home_w;
    if (scale_.warehouses > 1 && rng.next_bool(0.01)) {  // 1% remote
      int other = static_cast<int>(
          rng.next_in(1, static_cast<std::uint64_t>(scale_.warehouses - 1)));
      if (other >= home_w) ++other;
      line.supply_w_id = other;
    }
  }
  return in;
}

PaymentInput Database::make_payment_input(Rng& rng, int home_w) const {
  PaymentInput in{};
  in.w_id = home_w;
  in.d_id = static_cast<int>(
      rng.next_in(1, static_cast<std::uint64_t>(scale_.districts_per_warehouse)));
  in.c_w_id = in.w_id;
  in.c_d_id = in.d_id;
  if (scale_.warehouses > 1 && rng.next_bool(0.15)) {  // 15% remote customer
    int other = static_cast<int>(
        rng.next_in(1, static_cast<std::uint64_t>(scale_.warehouses - 1)));
    if (other >= home_w) ++other;
    in.c_w_id = other;
    in.c_d_id = static_cast<int>(rng.next_in(
        1, static_cast<std::uint64_t>(scale_.districts_per_warehouse)));
  }
  in.by_last_name = rng.next_bool(0.6);
  const auto max_code =
      static_cast<std::uint64_t>(std::min(scale_.customers_per_district, 1000) - 1);
  in.last_code = static_cast<std::uint16_t>(nurand_.last_name_code(rng, max_code));
  in.c_id = static_cast<int>(nurand_.customer_id(
      rng, static_cast<std::uint64_t>(scale_.customers_per_district)));
  in.amount_cents = static_cast<std::int64_t>(rng.next_in(100, 500000));
  return in;
}

OrderStatusInput Database::make_order_status_input(Rng& rng, int home_w) const {
  OrderStatusInput in{};
  in.w_id = home_w;
  in.d_id = static_cast<int>(
      rng.next_in(1, static_cast<std::uint64_t>(scale_.districts_per_warehouse)));
  in.by_last_name = rng.next_bool(0.6);
  const auto max_code =
      static_cast<std::uint64_t>(std::min(scale_.customers_per_district, 1000) - 1);
  in.last_code = static_cast<std::uint16_t>(nurand_.last_name_code(rng, max_code));
  in.c_id = static_cast<int>(nurand_.customer_id(
      rng, static_cast<std::uint64_t>(scale_.customers_per_district)));
  return in;
}

DeliveryInput Database::make_delivery_input(Rng& rng, int home_w) const {
  DeliveryInput in{};
  in.w_id = home_w;
  in.carrier_id = static_cast<int>(rng.next_in(1, 10));
  in.delivery_d = platform::now() | 1;  // non-zero marks "delivered"
  return in;
}

StockLevelInput Database::make_stock_level_input(Rng& rng, int home_w) const {
  StockLevelInput in{};
  in.w_id = home_w;
  in.d_id = static_cast<int>(
      rng.next_in(1, static_cast<std::uint64_t>(scale_.districts_per_warehouse)));
  in.threshold = static_cast<int>(rng.next_in(10, 20));
  return in;
}

// --- consistency checks ------------------------------------------------------------

bool Database::check_warehouse_ytd() const {
  for (int w = 1; w <= scale_.warehouses; ++w) {
    std::int64_t sum = 0;
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      sum += district(w, d).row.ytd_cents.raw_load();
    }
    if (warehouses_[static_cast<std::size_t>(w - 1)]->row.ytd_cents.raw_load() !=
        sum) {
      return false;
    }
  }
  return true;
}

bool Database::check_next_order_id() const {
  for (int w = 1; w <= scale_.warehouses; ++w) {
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      const District& dist = district(w, d);
      std::uint32_t max_id = 0;
      for (const OrderRow& o : dist.orders) {
        max_id = std::max(max_id, o.id.raw_load());
      }
      if (dist.row.next_o_id.raw_load() != max_id + 1) return false;
    }
  }
  return true;
}

bool Database::check_new_order_queue() const {
  const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
  for (int w = 1; w <= scale_.warehouses; ++w) {
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      const District& dist = district(w, d);
      const std::uint32_t head = dist.no_head.raw_load();
      const std::uint32_t tail = dist.no_tail.raw_load();
      if (tail - head > ring) return false;
      for (std::uint32_t i = head; i != tail; ++i) {
        const std::uint32_t o_id = dist.no_queue[i % ring].raw_load();
        const OrderRow& o = dist.orders[o_id % ring];
        if (o.id.raw_load() == o_id && o.carrier_id.raw_load() != 0) {
          return false;  // queued but already delivered
        }
      }
    }
  }
  return true;
}

bool Database::check_order_line_counts() const {
  for (int w = 1; w <= scale_.warehouses; ++w) {
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      const District& dist = district(w, d);
      const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
      for (std::uint32_t slot = 0; slot < ring; ++slot) {
        const OrderRow& o = dist.orders[slot];
        if (o.id.raw_load() == 0) continue;
        const std::uint32_t cnt = o.ol_cnt.raw_load();
        if (cnt < 5 || cnt > kMaxOrderLines) return false;
        for (std::uint32_t l = 0; l < cnt; ++l) {
          const OrderLineRow& ol = dist.order_lines[slot * kMaxOrderLines + l];
          const std::uint32_t i = ol.i_id.raw_load();
          if (i < 1 || i > static_cast<std::uint32_t>(scale_.items)) return false;
        }
      }
    }
  }
  return true;
}

std::int64_t Database::raw_total_balance_drift() const {
  // sum(c_balance + c_ytd_payment) - sum(amounts of delivered order lines).
  // Zero after population and preserved by payment/delivery/new-order —
  // valid only while the order ring has not overwritten delivered orders.
  std::int64_t total = 0;
  for (int w = 1; w <= scale_.warehouses; ++w) {
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      const District& dist = district(w, d);
      for (const CustomerRow& cu : dist.customers) {
        total += cu.balance_cents.raw_load() + cu.ytd_payment_cents.raw_load();
      }
      const auto ring = static_cast<std::uint32_t>(scale_.order_ring);
      for (std::uint32_t slot = 0; slot < ring; ++slot) {
        const OrderRow& o = dist.orders[slot];
        if (o.id.raw_load() == 0) continue;
        const std::uint32_t cnt = o.ol_cnt.raw_load();
        for (std::uint32_t l = 0; l < cnt && l < kMaxOrderLines; ++l) {
          const OrderLineRow& ol = dist.order_lines[slot * kMaxOrderLines + l];
          if (ol.delivery_d.raw_load() != 0) total -= ol.amount_cents.raw_load();
        }
      }
    }
  }
  return total;
}

std::string Database::raw_customer_data(int w, int d, int c) const {
  return customer(w, d, c).data.str();
}

bool Database::raw_customer_good_credit(int w, int d, int c) const {
  return customer(w, d, c).good_credit;
}

std::uint32_t Database::customer_index(int w, int d, int c) const noexcept {
  return static_cast<std::uint32_t>(
      ((w - 1) * scale_.districts_per_warehouse + (d - 1)) *
          scale_.customers_per_district +
      (c - 1));
}

}  // namespace sprwl::tpcc
