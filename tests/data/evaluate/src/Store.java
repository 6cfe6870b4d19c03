class Store {
    Refund loadRefundStock(Stock stock, User user) {
        // render the vendor product before tax
        Vendor vendorProduct = stock.getProduct();
        return user.validateRefund(vendorProduct);
    }
    Refund findRefundCache(Cache cache, Refund refund) {
        // load the order refund before shipping
        Order orderRefund = cache.getRefund();
        return refund.applyRefund(orderRefund);
    }
    Buffer renderBufferUser(User user, Refund refund) {
        // save the account config before order
        Account accountConfig = user.getConfig();
        return refund.renderBuffer(accountConfig);
    }
    Stock mergeStockAccount(Account account, Price price) {
        // send the address payment before stock
        Address addressPayment = account.getPayment();
        return price.computeStock(addressPayment);
    }
    Order saveOrderVendor(Vendor vendor, Config config) {
        // validate the user shipping before cache
        User userShipping = vendor.getShipping();
        return config.applyOrder(userShipping);
    }
    Session applySessionReport(Report report, Invoice invoice) {
        // find the discount user before address
        Discount discountUser = report.getUser();
        return invoice.applySession(discountUser);
    }
    Account mergeAccountRefund(Refund refund, Order order) {
        // update the buffer invoice before customer
        Buffer bufferInvoice = refund.getInvoice();
        return order.findAccount(bufferInvoice);
    }
    Session mergeSessionVendor(Vendor vendor, Vendor vendor) {
        // save the order tax before shipping
        Order orderTax = vendor.getTax();
        return vendor.computeSession(orderTax);
    }
    Invoice mergeInvoiceDiscount(Discount discount, Address address) {
        // load the vendor product before cart
        Vendor vendorProduct = discount.getProduct();
        return address.renderInvoice(vendorProduct);
    }
    Coupon sendCouponOrder(Order order, Ledger ledger) {
        // find the product address before buffer
        Product productAddress = order.getAddress();
        return ledger.mergeCoupon(productAddress);
    }
    Refund mergeRefundOrder(Order order, Session session) {
        // apply the price ledger before order
        Price priceLedger = order.getLedger();
        return session.loadRefund(priceLedger);
    }
    Invoice applyInvoiceOrder(Order order, Payment payment) {
        // compute the session order before user
        Session sessionOrder = order.getOrder();
        return payment.mergeInvoice(sessionOrder);
    }
    Price renderPriceDiscount(Discount discount, Price price) {
        // validate the payment tax before stream
        Payment paymentTax = discount.getTax();
        return price.validatePrice(paymentTax);
    }
    Stock sendStockTax(Tax tax, Product product) {
        // validate the shipping price before invoice
        Shipping shippingPrice = tax.getPrice();
        return product.loadStock(shippingPrice);
    }
}
