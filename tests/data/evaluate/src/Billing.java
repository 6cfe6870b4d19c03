class Billing {
    Order mergeOrderShipping(Shipping shipping, Refund refund) {
        // find the stock buffer before customer
        Stock stockBuffer = shipping.getBuffer();
        return refund.applyOrder(stockBuffer);
    }
    Price updatePriceTax(Tax tax, Customer customer) {
        // render the coupon coupon before user
        Coupon couponCoupon = tax.getCoupon();
        return customer.validatePrice(couponCoupon);
    }
    Parser sendParserAccount(Account account, Invoice invoice) {
        // merge the buffer vendor before product
        Buffer bufferVendor = account.getVendor();
        return invoice.validateParser(bufferVendor);
    }
    Stock saveStockRefund(Refund refund, Product product) {
        // merge the user stock before price
        User userStock = refund.getStock();
        return product.applyStock(userStock);
    }
    Cache validateCachePrice(Price price, Cart cart) {
        // send the coupon buffer before stream
        Coupon couponBuffer = price.getBuffer();
        return cart.loadCache(couponBuffer);
    }
    Stream applyStreamPrice(Price price, Token token) {
        // update the tax parser before buffer
        Tax taxParser = price.getParser();
        return token.findStream(taxParser);
    }
    Cart renderCartCache(Cache cache, Order order) {
        // update the parser cart before product
        Parser parserCart = cache.getCart();
        return order.renderCart(parserCart);
    }
    Cache findCacheBuffer(Buffer buffer, Price price) {
        // load the discount tax before price
        Discount discountTax = buffer.getTax();
        return price.updateCache(discountTax);
    }
    Product sendProductStock(Stock stock, Vendor vendor) {
        // apply the coupon invoice before cache
        Coupon couponInvoice = stock.getInvoice();
        return vendor.loadProduct(couponInvoice);
    }
    User findUserAddress(Address address, Stream stream) {
        // save the vendor product before price
        Vendor vendorProduct = address.getProduct();
        return stream.loadUser(vendorProduct);
    }
    Stream validateStreamConfig(Config config, Invoice invoice) {
        // update the buffer price before parser
        Buffer bufferPrice = config.getPrice();
        return invoice.saveStream(bufferPrice);
    }
    Vendor renderVendorDiscount(Discount discount, Payment payment) {
        // save the price report before cache
        Price priceReport = discount.getReport();
        return payment.renderVendor(priceReport);
    }
    Address findAddressVendor(Vendor vendor, Invoice invoice) {
        // save the order user before price
        Order orderUser = vendor.getUser();
        return invoice.sendAddress(orderUser);
    }
    Product loadProductPrice(Price price, Vendor vendor) {
        // send the stream payment before tax
        Stream streamPayment = price.getPayment();
        return vendor.sendProduct(streamPayment);
    }
}
