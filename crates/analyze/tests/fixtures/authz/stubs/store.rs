//! Fed as `crates/server/src/store.rs`: the store settle and the order
//! status the authz spec names as sinks.
pub struct Store {
    orders: Vec<Order>,
}

impl Store {
    pub fn try_settle(&mut self, id: u64) -> bool {
        self.orders.is_empty()
    }
}

pub struct Order {
    pub status: OrderStatus,
}
