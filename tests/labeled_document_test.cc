#include "doc/labeled_document.h"

#include <memory>
#include <ostream>
#include <string>

#include "core/bbox/bbox.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "xml/generators.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace boxes {
namespace {

using testing::TestDb;

struct FacadeParam {
  const char* name;
  std::unique_ptr<LabelingScheme> (*make)(PageCache*);
};

// gtest prints the parameter after each test name, and gtest_discover_tests
// copies that text into the ctest name. Print the scheme name: the default
// byte dump shows the struct's pointers, which change with every build and
// every run, so ctest names would never stay the same.
void PrintTo(const FacadeParam& param, std::ostream* os) {
  *os << param.name;
}

std::unique_ptr<LabelingScheme> MakeWBox(PageCache* cache) {
  WBoxOptions options;
  options.pair_mode = true;
  return std::make_unique<WBox>(cache, options);
}
std::unique_ptr<LabelingScheme> MakeBBox(PageCache* cache) {
  return std::make_unique<BBox>(cache);
}

class LabeledDocumentTest : public ::testing::TestWithParam<FacadeParam> {};

TEST_P(LabeledDocumentTest, BuildEditAndSerialize) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());

  ASSERT_OK_AND_ASSIGN(const auto site, doc.CreateRoot("site"));
  ASSERT_OK_AND_ASSIGN(const auto regions, doc.AppendChild(site, "regions"));
  ASSERT_OK_AND_ASSIGN(const auto people, doc.AppendChild(site, "people"));
  ASSERT_OK_AND_ASSIGN(const auto asia, doc.AppendChild(regions, "asia"));
  ASSERT_OK_AND_ASSIGN(const auto africa,
                       doc.InsertBefore(asia, "africa"));
  ASSERT_OK_AND_ASSIGN(const auto item, doc.AppendChild(africa, "item"));
  EXPECT_EQ(doc.element_count(), 6u);

  ASSERT_OK_AND_ASSIGN(bool ancestor, doc.IsAncestorOf(regions, item));
  EXPECT_TRUE(ancestor);
  ASSERT_OK_AND_ASSIGN(ancestor, doc.IsAncestorOf(people, item));
  EXPECT_FALSE(ancestor);
  ASSERT_OK_AND_ASSIGN(const int cmp, doc.CompareOrder(africa, asia));
  EXPECT_LT(cmp, 0);

  ASSERT_OK_AND_ASSIGN(const std::string xml, doc.ToXml(false));
  EXPECT_EQ(xml,
            "<site><regions><africa><item/></africa><asia/></regions>"
            "<people/></site>");
  ASSERT_OK(doc.CheckConsistency());
}

TEST_P(LabeledDocumentTest, XmlRoundTrip) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());
  const char* kXml =
      "<a><b><c/><d><e/></d></b><f/><g><h/><h/><h/></g></a>";
  ASSERT_OK(doc.LoadXml(kXml).status());
  ASSERT_OK_AND_ASSIGN(const std::string out, doc.ToXml(false));
  EXPECT_EQ(out, kXml);
  ASSERT_OK(doc.CheckConsistency());
}

TEST_P(LabeledDocumentTest, EraseSplicesChildren) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());
  ASSERT_OK(doc.LoadXml("<r><x><y/><z/></x><w/></r>").status());
  ASSERT_OK_AND_ASSIGN(const auto handles, doc.HandlesInDocumentOrder());
  // handles: r, x, y, z, w
  ASSERT_EQ(doc.tag(handles[1]), "x");
  ASSERT_OK(doc.Erase(handles[1]));
  ASSERT_OK_AND_ASSIGN(const std::string out, doc.ToXml(false));
  EXPECT_EQ(out, "<r><y/><z/><w/></r>");  // x's children moved up
  ASSERT_OK(doc.CheckConsistency());
}

TEST_P(LabeledDocumentTest, EraseSubtreeRemovesDescendants) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());
  ASSERT_OK(doc.LoadXml("<r><x><y/><z/></x><w/></r>").status());
  ASSERT_OK_AND_ASSIGN(const auto handles, doc.HandlesInDocumentOrder());
  ASSERT_EQ(doc.tag(handles[1]), "x");
  ASSERT_OK(doc.EraseSubtree(handles[1]));
  EXPECT_FALSE(doc.alive(handles[2]));  // y
  EXPECT_FALSE(doc.alive(handles[3]));  // z
  ASSERT_OK_AND_ASSIGN(const std::string out, doc.ToXml(false));
  EXPECT_EQ(out, "<r><w/></r>");
  ASSERT_OK(doc.CheckConsistency());
  EXPECT_EQ(doc.element_count(), 2u);
}

TEST_P(LabeledDocumentTest, PasteFragmentBulk) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());
  ASSERT_OK(doc.LoadXml("<r><a/><b/></r>").status());
  ASSERT_OK_AND_ASSIGN(const auto handles, doc.HandlesInDocumentOrder());
  const auto a = handles[1];
  ASSERT_OK_AND_ASSIGN(const xml::Document fragment,
                       xml::ParseDocument("<frag><p/><q><s/></q></frag>"));
  ASSERT_OK_AND_ASSIGN(const auto frag_root,
                       doc.PasteFragment(a, fragment));
  EXPECT_EQ(doc.tag(frag_root), "frag");
  ASSERT_OK_AND_ASSIGN(const std::string out, doc.ToXml(false));
  EXPECT_EQ(out, "<r><a><frag><p/><q><s/></q></frag></a><b/></r>");
  ASSERT_OK(doc.CheckConsistency());
}

TEST_P(LabeledDocumentTest, RandomEditSessionStaysConsistent) {
  TestDb db(1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  LabeledDocument doc(scheme.get());
  ASSERT_OK(doc.CreateRoot("root").status());
  Random rng(77);
  std::vector<LabeledDocument::ElementHandle> pool{0};
  for (int step = 0; step < 400; ++step) {
    const uint64_t dice = rng.Uniform(100);
    // Pick a live element.
    LabeledDocument::ElementHandle target;
    do {
      target = pool[rng.Uniform(pool.size())];
    } while (!doc.alive(target));
    if (dice < 55 || doc.element_count() < 3) {
      StatusOr<LabeledDocument::ElementHandle> fresh =
          dice % 2 == 0 ? doc.AppendChild(target, "e")
                        : (target == 0 ? doc.AppendChild(target, "e")
                                       : doc.InsertBefore(target, "e"));
      ASSERT_OK(fresh.status());
      pool.push_back(*fresh);
    } else if (dice < 75) {
      if (target != 0) {
        ASSERT_OK(doc.Erase(target));
      }
    } else if (dice < 90) {
      if (target != 0) {
        ASSERT_OK(doc.EraseSubtree(target));
      }
    } else {
      const xml::Document fragment = xml::MakeBalancedDocument(
          1 + rng.Uniform(12), 3);
      ASSERT_OK(doc.PasteFragment(target, fragment).status());
      // New handles are found via document order when needed.
    }
    if (step % 80 == 79) {
      ASSERT_OK(doc.CheckConsistency());
    }
  }
  ASSERT_OK(doc.CheckConsistency());
  // Round-trip: serialize and reload into a fresh facade.
  ASSERT_OK_AND_ASSIGN(const std::string xml, doc.ToXml(true));
  TestDb db2(1024);
  std::unique_ptr<LabelingScheme> scheme2 = GetParam().make(&db2.cache);
  LabeledDocument doc2(scheme2.get());
  ASSERT_OK(doc2.LoadXml(xml).status());
  ASSERT_OK_AND_ASSIGN(const std::string xml2, doc2.ToXml(true));
  EXPECT_EQ(xml, xml2);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, LabeledDocumentTest,
    ::testing::Values(FacadeParam{"wboxo", MakeWBox},
                      FacadeParam{"bbox", MakeBBox}),
    [](const ::testing::TestParamInfo<FacadeParam>& info) {
      return std::string(info.param.name);
    });

TEST(LabeledDocumentErrorsTest, GuardsInvalidUse) {
  TestDb db(1024);
  WBox wbox(&db.cache);
  LabeledDocument doc(&wbox);
  EXPECT_FALSE(doc.AppendChild(0, "x").ok());  // nothing alive yet
  ASSERT_OK(doc.CreateRoot("r").status());
  EXPECT_EQ(doc.CreateRoot("again").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(doc.Erase(42).ok());
  ASSERT_OK(doc.Erase(0));
  EXPECT_EQ(doc.element_count(), 0u);
}

}  // namespace
}  // namespace boxes
