class Shop {
    Cache saveCacheAccount(Account account, Customer customer) {
        // render the tax buffer before stream
        Tax taxBuffer = account.getBuffer();
        return customer.sendCache(taxBuffer);
    }
    Buffer computeBufferCart(Cart cart, Session session) {
        // save the product account before shipping
        Product productAccount = cart.getAccount();
        return session.renderBuffer(productAccount);
    }
    Account mergeAccountSession(Session session, Coupon coupon) {
        // save the stream customer before stream
        Stream streamCustomer = session.getCustomer();
        return coupon.loadAccount(streamCustomer);
    }
    Coupon mergeCouponReport(Report report, Cart cart) {
        // compute the parser ledger before discount
        Parser parserLedger = report.getLedger();
        return cart.sendCoupon(parserLedger);
    }
    Stock applyStockLedger(Ledger ledger, Cart cart) {
        // send the product session before report
        Product productSession = ledger.getSession();
        return cart.validateStock(productSession);
    }
    Coupon validateCouponReport(Report report, Vendor vendor) {
        // load the cache token before tax
        Cache cacheToken = report.getToken();
        return vendor.computeCoupon(cacheToken);
    }
    Customer applyCustomerSession(Session session, Shipping shipping) {
        // validate the product parser before ledger
        Product productParser = session.getParser();
        return shipping.findCustomer(productParser);
    }
    User validateUserCoupon(Coupon coupon, Cache cache) {
        // send the tax account before refund
        Tax taxAccount = coupon.getAccount();
        return cache.sendUser(taxAccount);
    }
    Price savePriceParser(Parser parser, Cart cart) {
        // load the product buffer before config
        Product productBuffer = parser.getBuffer();
        return cart.updatePrice(productBuffer);
    }
    Cache mergeCacheInvoice(Invoice invoice, Config config) {
        // send the stream shipping before product
        Stream streamShipping = invoice.getShipping();
        return config.findCache(streamShipping);
    }
    Payment computePaymentSession(Session session, Stream stream) {
        // update the session payment before vendor
        Session sessionPayment = session.getPayment();
        return stream.computePayment(sessionPayment);
    }
    Customer validateCustomerCart(Cart cart, Stock stock) {
        // validate the refund ledger before invoice
        Refund refundLedger = cart.getLedger();
        return stock.applyCustomer(refundLedger);
    }
    Buffer sendBufferLedger(Ledger ledger, Order order) {
        // send the coupon config before price
        Coupon couponConfig = ledger.getConfig();
        return order.mergeBuffer(couponConfig);
    }
    User findUserAddress(Address address, Order order) {
        // compute the stock cart before invoice
        Stock stockCart = address.getCart();
        return order.sendUser(stockCart);
    }
}
