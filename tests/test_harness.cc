#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/paper_experiments.h"
#include "harness/table_printer.h"

namespace rtq::harness {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("  name  value"), std::string::npos);
  EXPECT_NE(out.find("longer     22"), std::string::npos);
}

TEST(TablePrinter, MissingCellsRenderEmpty) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NO_THROW(t.ToString());
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Percent(0.256, 1), "25.6%");
  EXPECT_EQ(TablePrinter::Percent(0.0, 1), "0.0%");
}

TEST(Csv, EscapesSpecials) {
  TablePrinter csv({"a", "b"});
  csv.AddRow({"plain", "with,comma"});
  csv.AddRow({"with\"quote", "with\nnewline"});
  EXPECT_EQ(csv.ToCsv(),
            "a,b\n"
            "plain,\"with,comma\"\n"
            "\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, WritesFile) {
  TablePrinter csv({"x", "y"});
  csv.AddRow({"1", "2"});
  std::string path = "results/test_csv_writer.csv";
  ASSERT_TRUE(csv.WriteCsv(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(PaperExperiments, ConfigsValidate) {
  engine::PolicyConfig pmm{"pmm"};
  EXPECT_TRUE(BaselineConfig(0.06, pmm).Validate().ok());
  EXPECT_TRUE(DiskContentionConfig(0.07, pmm).Validate().ok());
  EXPECT_TRUE(WorkloadChangeConfig(pmm).Validate().ok());
  EXPECT_TRUE(ExternalSortConfig(0.08, pmm).Validate().ok());
  EXPECT_TRUE(MulticlassConfig(0.4, pmm).Validate().ok());
  EXPECT_TRUE(MulticlassConfig(0.0, pmm).Validate().ok());
  EXPECT_TRUE(ScaledConfig(0.07, pmm, 10.0).Validate().ok());
}

TEST(PaperExperiments, ConfigShapesMatchPaper) {
  engine::PolicyConfig pmm{"pmm"};

  auto baseline = BaselineConfig(0.06, pmm);
  EXPECT_EQ(baseline.num_disks, 10);
  EXPECT_EQ(baseline.memory_pages, 2560);
  EXPECT_EQ(baseline.workload.classes.size(), 1u);

  auto contention = DiskContentionConfig(0.07, pmm);
  EXPECT_EQ(contention.num_disks, 6);

  auto multiclass = MulticlassConfig(0.4, pmm);
  EXPECT_EQ(multiclass.num_disks, 12);
  EXPECT_EQ(multiclass.workload.classes.size(), 2u);
  EXPECT_DOUBLE_EQ(multiclass.workload.classes[0].arrival_rate, 0.065);

  auto scaled = ScaledConfig(0.07, pmm, 10.0);
  EXPECT_EQ(scaled.memory_pages, 25600);
  EXPECT_DOUBLE_EQ(scaled.workload.classes[0].arrival_rate, 0.007);
  EXPECT_GE(scaled.disk.capacity(),
            2 * (scaled.database.groups[0].max_pages +
                 scaled.database.groups[1].max_pages));
}

TEST(PaperExperiments, PolicyLabels) {
  EXPECT_EQ(PolicyLabel({"minmax:10"}), "MinMax-10");
  EXPECT_EQ(PolicyLabel({"max"}), "Max");
  EXPECT_EQ(PolicyLabel({"max:strict"}), "Max(strict)");
  EXPECT_EQ(PolicyLabel({"prop"}), "Proportional");
  EXPECT_EQ(PolicyLabel({"pmm"}), "PMM");
  EXPECT_EQ(PolicyLabel({"pmm-fair:w=1,2"}), "PMM-Fair");
  EXPECT_EQ(PolicyLabel({"none"}), "None");
  EXPECT_EQ(PolicyLabel({"oracle-ed"}), "Oracle-ED");
}

TEST(PaperExperiments, BaselinePoliciesCoverThePaper) {
  auto policies = BaselinePolicies();
  ASSERT_EQ(policies.size(), 4u);
  EXPECT_EQ(policies[0].ResolvedSpec(), "max");
  EXPECT_EQ(policies[1].ResolvedSpec(), "minmax");
  EXPECT_EQ(policies[2].ResolvedSpec(), "prop");
  EXPECT_EQ(policies[3].ResolvedSpec(), "pmm");
}

TEST(PaperExperiments, PoliciesOrDefaultHonoursEnvironment) {
  const char* old = std::getenv("RTQ_POLICIES");

  unsetenv("RTQ_POLICIES");
  auto defaults = PoliciesOrDefault(BaselinePolicies());
  ASSERT_EQ(defaults.size(), 4u);
  EXPECT_EQ(defaults[0].ResolvedSpec(), "max");

  setenv("RTQ_POLICIES", "pmm,none", 1);
  auto overridden = PoliciesOrDefault(BaselinePolicies());
  ASSERT_EQ(overridden.size(), 2u);
  EXPECT_EQ(overridden[0].ResolvedSpec(), "pmm");
  EXPECT_EQ(overridden[1].ResolvedSpec(), "none");

  // A weight list's commas stay inside the previous spec.
  setenv("RTQ_POLICIES", "pmm-fair:w=1,2,max", 1);
  auto with_weights = PoliciesOrDefault(BaselinePolicies());
  ASSERT_EQ(with_weights.size(), 2u);
  EXPECT_EQ(with_weights[0].ResolvedSpec(), "pmm-fair:w=1,2");
  EXPECT_EQ(with_weights[1].ResolvedSpec(), "max");

  if (old != nullptr) {
    setenv("RTQ_POLICIES", old, 1);
  } else {
    unsetenv("RTQ_POLICIES");
  }
}

TEST(PaperExperiments, DurationHonoursEnvironment) {
  // Do not disturb a possibly-set variable beyond this test.
  const char* old = std::getenv("RTQ_SIM_HOURS");
  setenv("RTQ_SIM_HOURS", "2.5", 1);
  EXPECT_DOUBLE_EQ(ExperimentDuration(), 2.5 * 3600.0);
  if (old != nullptr) {
    setenv("RTQ_SIM_HOURS", old, 1);
  } else {
    unsetenv("RTQ_SIM_HOURS");
  }
}

}  // namespace
}  // namespace rtq::harness
